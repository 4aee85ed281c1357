(** Byte-addressable data memory of one node.

    All multi-byte accesses honour the node architecture's byte order, so
    the in-memory representation of an object on a VAX really is
    byte-swapped relative to a SPARC, and the marshalling layer has to
    convert.  Address 0 is the nil reference; accesses below
    {!low_bound} fault. *)

type t

exception Fault of int
(** Raised on an access outside the mapped range (the address is carried). *)

val low_bound : int
(** Lowest mapped address (a small red zone catches nil dereferences). *)

val create : endian:Endian.t -> size:int -> t
val endian : t -> Endian.t
val size : t -> int
val grow_to : t -> int -> unit

(** Install the incremental collector's write barrier: with [Some f],
    [f old_bits new_bits] is called on every 32-bit store (checked or
    unsafe) with the overwritten and the stored word as unsigned bits,
    before the store lands; [None] removes it, restoring plain stores.
    At most one barrier is installed at a time; installing replaces.
    With no barrier installed a store costs one extra branch.  The
    option is stored as given, so a caller that keeps its [Some f]
    installs without allocating. *)
val set_store_barrier : t -> (int -> int -> unit) option -> unit
val load32 : t -> int -> int32
val store32 : t -> int -> int32 -> unit

(** [load32] with the word returned as bits in [0, 0xFFFF_FFFF] — an
    untagged [int], no allocation.  Same bounds check, same byte order. *)
val load32_bits : t -> int -> int

(** [store32] from the low 32 bits of an [int] (signed or unsigned
    representation both work).  Same bounds check, same byte order. *)
val store32_bits : t -> int -> int -> unit

(** Unchecked variants for callers that perform the [low_bound]/[size]
    test themselves; out-of-range addresses are undefined behaviour. *)
val unsafe_load32_bits : t -> int -> int

val unsafe_store32_bits : t -> int -> int -> unit
val load8 : t -> int -> int
val blit_string : t -> int -> string -> unit
val read_string : t -> int -> int -> string
val blit_within : t -> src:int -> dst:int -> len:int -> unit
(** Overlapping-safe copy, used by the activation-record relocation pass. *)

val zero_fill : t -> int -> int -> unit
