(** Compiled conversion plans.

    The prototype re-interprets the class template slot-by-slot on every
    migration; this module compiles a [(template, src-arch, dst-arch)]
    triple {e once} into a flat array of fused ops — a skeleton blit of
    all the constant bytes of a frame or field section (tags, slot
    numbers, header fields) with {e holes} poked with the fixed-size
    values, falling back to per-datum encoding only for dynamically
    shaped values (strings, references, vectors, nil-able slots).

    Plans are memoized in the {!Code_repository}, keyed by
    [(code OID, stop, arch pair)].  The wire format is the
    commonly-agreed-upon network format of section 2.1, so the emitted
    {e bytes} are pair-independent; what the pair determines is the
    conversion {e strategy} the plan records (a homogeneous big-endian
    pair collapses to a single blit of the native image; a pair with a
    byte-swapped or VAX-float endpoint adds swap and float-convert
    steps), mirroring the per-pair conversion routines of section 3.6.

    Accounting: a plan charges exactly what the per-datum writes it
    replaces would charge (precomputed at plan-compile time), so
    virtual-time results are bit-identical with and without plans; only
    host-side work changes. *)

type pair = {
  pr_src : Isa.Arch.t;
  pr_dst : Isa.Arch.t;
}

val pair_key : pair -> string

(** A compiled plan for a sequence of values: the count prefix, optional
    u16 slot-number prefixes, tags and fixed-size payloads are fused
    into skeleton pieces; dynamic values interleave as per-datum ops. *)
type section

val section_count : section -> int
(** Number of values the plan covers. *)

val section_fixed_bytes : section -> int
(** Bytes covered by skeleton pieces (including the count prefix). *)

val section_dyn_count : section -> int
(** Values that still encode per-datum (dynamically shaped). *)

val section_strategy : section -> string
(** The fused conversion strategy for the arch pair, e.g. ["blit"] for a
    homogeneous big-endian pair or ["swap32/64+fconv"] with a VAX
    endpoint. *)

type frame_plan
(** A {!section} plus the fused 14-byte frame header
    (class, code OID, method, stop, self-hole). *)

val frame_section : frame_plan -> section

(** {1 Compilation} *)

val compile_section : pair:pair -> prefixed:bool -> (int * Emc.Ast.typ) array -> section
(** [compile_section ~pair ~prefixed elems] compiles a plan for values
    declared with the given types, in wire order.  When [prefixed], each
    value is preceded by a u16 slot-number prefix ([fst elems.(i)]),
    fused into the skeleton.  Exposed for property tests; normal clients
    go through the {!cache}. *)

val compile_frame :
  pair:pair -> Emc.Compile.compiled_class -> stop:int -> frame_plan option
(** Plan for the activation-record encoding of a class suspended at a
    bus stop ([None] if the class has no such stop). *)

(** {1 Encode / decode through a plan}

    Encoders pre-check that the plan {e applies} (value constructors
    match the declared fixed kinds, slot numbers and header fields
    match) before writing anything, so a fused encode never partially
    writes; on mismatch the caller falls back to the interpretive path,
    which produces the same bytes by construction.  Decoders verify the
    count prefix and fall back likewise without consuming input. *)

val write_section : section -> Enet.Wire.Writer.t -> (int -> Ert.Value.t) -> bool
(** [write_section s w value] emits [s.count] values ([value i] in wire
    order); false (nothing written) if the plan does not apply. *)

val read_section : section -> Enet.Wire.Reader.t -> Ert.Value.t array option

val write_frame :
  frame_plan ->
  Enet.Wire.Writer.t ->
  cls:int ->
  code_oid:int32 ->
  meth:int ->
  stop:int ->
  self:Ert.Oid.t ->
  slots:(int * Ert.Value.t) array ->
  bool

val read_frame_slots : frame_plan -> Enet.Wire.Reader.t -> (int * Ert.Value.t) array option
(** Fused decode of the slot section (the caller has already read the
    frame header interpretively in order to look the plan up). *)

(** {1 The memo cache}

    Held by the {!Code_repository}; populated lazily from the loaded
    program.  [stop = -1] keys a class's field-section plan. *)

type cache

val create_cache : unit -> cache

val set_program : cache -> Emc.Compile.program -> unit
(** Invalidates all cached plans (the key space is per-program). *)

val compiles : cache -> int
val hits : cache -> int

(** A cache bound to a concrete arch pair: what en/decoders thread
    through the move path.  [make_use] interns the pair so the hot path
    looks plans up with an immediate int key, plus a one-entry memo.
    A [use] must not outlive a {!set_program} call on its cache — create
    a fresh one per en/decode (they are cheap). *)
type use

val make_use : cache -> pair -> use

val frame_plan_for : use -> class_index:int -> stop:int -> frame_plan option
val fields_plan_for : use -> class_index:int -> section option

val describe : use -> class_index:int -> stop:int -> string option
(** Human-readable plan description for [emdis]/debugging. *)
