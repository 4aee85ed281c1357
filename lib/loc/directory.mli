(** One node's shard of the distributed location directory.

    Entries map OIDs (those whose {!Partition.home} is this node) to
    their last known location, stamped with the virtual time of the
    migration that put them there.  Updates apply last-writer-wins by
    timestamp — sound because an object's successive moves are
    sequential, so genuine updates carry strictly increasing stamps and
    anything older is a reordered duplicate. *)

type t

val create : unit -> t
val length : t -> int

val update : t -> Ert.Oid.t -> node:int -> at:float -> bool
(** Apply a location update; [false] means it was older than the
    current entry and was dropped. *)

val lookup : t -> Ert.Oid.t -> int
(** Authoritative-shard lookup: the last known node, or -1 when the
    shard has no entry (counts a hit or miss). *)

val peek : t -> Ert.Oid.t -> int
(** [lookup] without touching the hit/miss counters (host-side
    inspection, invariant checks). *)

val clear : t -> unit
(** Drop every entry (crash rebuild); statistics survive. *)

val updates : t -> int
val stale_dropped : t -> int
val hits : t -> int
val misses : t -> int
