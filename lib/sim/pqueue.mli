(** A binary min-heap priority queue over virtual time.

    Entries are ordered by [(time, rank, seq)]: virtual time first, then
    an explicit rank (the caller's tie-breaking policy — e.g. event kind
    and node index), then an internal sequence number assigned at push
    time.  The sequence number makes the pop order a total order, so a
    simulation driven off this queue is deterministic regardless of
    insertion timing.

    [push] and [take_min] are O(log n); [min_time] is O(1). *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> rank:int -> 'a -> unit
(** Insert an item at the given virtual time.  Lower [rank] wins among
    entries with equal time; insertion order breaks remaining ties. *)

val min_time : 'a t -> float
(** Time of the minimum entry; check {!is_empty} first.
    @raise Invalid_argument on an empty queue. *)

val take_min : 'a t -> 'a
(** Remove the minimum entry and return its item (read {!min_time}
    first if the time is needed).
    @raise Invalid_argument on an empty queue. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
