(** Compiled code objects.

    A code object is the per-architecture native code for one program
    class.  In Emerald, code objects are immutable objects named by OIDs
    and moved by duplication (section 3.2); semantically equivalent code
    objects compiled for different architectures share the same OID
    (section 3.4), which is what lets bus stops name program points across
    machines.  Program-counter values are byte offsets into the encoded
    instruction stream. *)

type method_info = {
  method_name : string;
  entry_offset : int;  (** byte offset of the method prologue *)
  method_index : int;  (** slot in the dispatch table; same on every arch *)
}

type t = private {
  code_oid : int32;
  code_inst : int;
      (** instance tag distinguishing differently-optimized bodies of the
          same code OID (the optimization level); the dispatch engine's
          path tables are keyed by [(code_oid, code_inst)] *)
  class_name : string;
  arch : Arch.t;
  insns : Insn.t array;
  offsets : int array;  (** byte offset of each instruction *)
  byte_size : int;
  methods : method_info array;  (** indexed by [method_index] *)
  index_dense : int array;
      (** byte offset -> instruction index; -1 between boundaries.  The
          interpreter's fetch path reads this (and the two arrays below)
          directly — precomputed at {!make} so decode costs no per-fetch
          table lookups or size/cycle recomputation. *)
  insn_sizes : int array;  (** per-instruction encoded size, bytes *)
  insn_cycles : int array;  (** per-instruction cost, cycles, this arch *)
}

val make :
  ?inst:int ->
  arch:Arch.t ->
  code_oid:int32 ->
  class_name:string ->
  methods:(string * int) array ->
  Insn.t array ->
  t
(** [make ~arch ~code_oid ~class_name ~methods insns] builds a code object;
    [methods] gives each method name and the {e instruction index} of its
    entry, converted internally to byte offsets.  [inst] (default 0) tags
    the optimization instance this body belongs to. *)

val compute_offsets : Arch.family -> Insn.t array -> int array * int
(** Byte offset of each instruction and the total byte size — also used by
    the code generators to resolve branch targets. *)

val index_at : t -> int -> int
(** [index_at code off] is the instruction index at byte offset [off].
    @raise Invalid_argument if [off] is not an instruction boundary. *)

val method_by_name : t -> string -> method_info option
val pp : Format.formatter -> t -> unit
