(** Dense, array-backed OID maps (OID -> slot).

    Live keys occupy a contiguous slot range in parallel arrays, indexed
    by an open-addressed table over {!Oid.intern} (two int arrays,
    linear probing, removal by backward shift): a lookup hashes with one
    multiply and allocates nothing.  Every operation is O(1) amortised;
    removal swaps the last slot down.  Iteration order is a
    deterministic function of the operation sequence, never of
    hashing. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills vacated slots so removed values don't leak, and is
    what {!find} returns for an absent key.  [capacity] (default 8,
    rounded up to a power of two of at least 4) is the number of keys
    held before the first growth. *)

val length : 'a t -> int
val mem : 'a t -> Oid.t -> bool

val find : 'a t -> Oid.t -> 'a
(** The value bound to the OID, or the table's [dummy]. *)

val find_opt : 'a t -> Oid.t -> 'a option

val slot : 'a t -> Oid.t -> int
(** The slot holding the OID, or -1.  Slots run from 0 to [length - 1]
    in iteration order: {!replace} of a new key takes slot [length], and
    {!remove} moves the last slot's binding into the vacated one. *)

val replace : 'a t -> Oid.t -> 'a -> unit
val remove : 'a t -> Oid.t -> unit

val find_key : 'a t -> int -> 'a
val remove_key : 'a t -> int -> unit
(** {!find} and {!remove} by the OID's {!Oid.intern} image, for a caller
    that read it as an int and so boxes no [int32]. *)

val clear : 'a t -> unit
(** Remove every binding; the table keeps its size. *)

val iter : (Oid.t -> 'a -> unit) -> 'a t -> unit
val fold : (Oid.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
