(** Register files of the virtual architectures.

    Registers are small integers indexing a per-thread register array; the
    meaning of an index depends on the instruction-set family.  The three
    families have non-isomorphic register sets (section 1 of the paper lists
    this as one of the obstacles to heterogeneous mobility):

    - VAX: R0..R11 general purpose, R12 = AP, R13 = FP, R14 = SP
      (R15 = PC is not materialised in the register array).
    - MC680x0: D0..D7 data registers (indices 0-7), A0..A7 address
      registers (8-15), with A6 the frame pointer and A7 the stack pointer.
    - SPARC: a single visible window %g0..%g7 (0-7, %g0 hardwired to zero),
      %o0..%o7 (8-15), %l0..%l7 (16-23), %i0..%i7 (24-31); %o6/%i6 are
      SP/FP.  Window shifting is performed by the SAVE/RESTORE
      instructions, which spill eagerly (constant window depth of one). *)

type t = int

val count : Arch.family -> int
(** Size of the register array for a family. *)

val sp : Arch.family -> t
(** Stack pointer. *)

val fp : Arch.family -> t
(** Frame pointer (VAX FP, M68k A6, SPARC %i6). *)

val scratch : Arch.family -> t list
(** Registers the code generator may use for expression temporaries
    between bus stops, in allocation order. *)

val name : Arch.family -> t -> string
val pp : Arch.family -> Format.formatter -> t -> unit
