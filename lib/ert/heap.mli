(** Node-local heap allocator.

    A bump allocator with size-segregated stacks of free addresses,
    last freed first (refilled by the garbage collector).  Everything the generated code touches — object
    descriptors, string blocks, monitor queue nodes, descriptor tables,
    thread stacks — comes from here, inside the node's byte-addressable
    memory and below the text segment. *)

type t

val create : mem:Isa.Memory.t -> start:int -> t
val alloc : t -> int -> int
(** Allocate [n] bytes (word aligned), zero filled.
    @raise Out_of_memory if the heap would collide with the text base. *)

val free : t -> addr:int -> size:int -> unit
(** Return a block to the allocator (used by the collector). *)

val brk : t -> int
(** Current top of the bump region. *)

val start : t -> int
val live_bytes : t -> int
