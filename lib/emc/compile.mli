(** Top-level compiler driver.

    Compiles a source program once per requested architecture — and, when
    several optimization levels are requested, once per [(architecture,
    level)] pair — from a single shared IR, so bus-stop numbering,
    templates and code-object OIDs are identical across every code
    instance by construction — the discipline the paper's program database
    enforces for separate compilations (section 3.4). *)

type arch_artifact = {
  aa_arch : Isa.Arch.t;
  aa_level : Opt.level;  (** optimization level of this code instance *)
  aa_code : Isa.Code.t;
  aa_stops : Busstop.table;
  aa_edits : Opt.edit list;
      (** optimizer edit provenance, in application order (empty at -O0) *)
}

type compiled_class = {
  cc_name : string;
  cc_index : int;
  cc_oid : int32;
  cc_template : Template.class_t;
  cc_ir : Ir.class_ir;
  cc_levels : Opt.level list;  (** compiled levels; the head is primary *)
  cc_arts : ((string * Opt.level) * arch_artifact) list;
      (** code instances keyed by (architecture id, optimization level) *)
}

type program = {
  p_name : string;
  p_ir : Ir.program_ir;
  p_classes : compiled_class array;
}

val compile :
  ?db:Program_db.t ->
  ?levels:Opt.level list ->
  name:string ->
  archs:Isa.Arch.t list ->
  string ->
  (program, Diag.error list) result

val compile_exn :
  ?db:Program_db.t ->
  ?levels:Opt.level list ->
  name:string ->
  archs:Isa.Arch.t list ->
  string ->
  program
(** [levels] selects the code instances to build per architecture (first
    element is the primary level used by {!artifact}); when absent or
    empty, a single [-O0] instance.  Levels apply uniformly across a
    program's architectures, which this interface guarantees (the paper's
    prototype likewise ran identically optimized code everywhere,
    section 3).
    @raise Diag.Compile_error *)

val find_class : program -> string -> compiled_class option

val primary_level : compiled_class -> Opt.level
(** The head of [cc_levels] — what {!artifact} resolves to. *)

val artifact : compiled_class -> arch_id:string -> arch_artifact
(** The primary-level instance for the architecture.
    @raise Invalid_argument if the class was not compiled for it. *)

val artifact_at : compiled_class -> arch_id:string -> level:Opt.level -> arch_artifact option
(** The exact [(arch, level)] instance, if that instance was compiled. *)

val class_by_index : program -> int -> compiled_class
