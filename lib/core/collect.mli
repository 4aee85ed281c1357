(** When and how a node's heap is collected (DESIGN.md §17).

    Automatic collection runs when a node's live heap bytes exceed the
    threshold, in one of two tiers that run the same {!Ert.Gc} cycle:
    stop-the-world runs it to completion in one call, the incremental
    tier in bounded increments interleaved with the event loop.  The
    tiers differ only in their charges.  A finished collection emits
    one [Ev_gc], counted by the bus counter [c_collections].  The
    harness-held objects are extra roots; objects and segments leaving
    a node under an open cycle are greyed at send-off; a crash discards
    the node's cycle. *)

type mode =
  | Gc_stw  (** one whole cycle per threshold crossing, charged in one lump *)
  | Gc_incremental
      (** a tri-color cycle of increments of at most [budget] pointer
          slots each, self-scheduled as [Engine.Gc] events *)

type t

val create :
  mode:mode ->
  threshold:int option ->
  budget:int ->
  kernels:Ert.Kernel.t array ->
  engine:Engine.t ->
  bus:Events.bus ->
  quiesce:(int -> unit) ->
  t
(** [threshold] [None] never collects.  [kernels] is the cluster's,
    read here.  [quiesce] runs a node's segments forward to their bus
    stops, where the templates identify pointers; a collection or a
    cycle opens with it. *)

val mode : t -> mode

val in_progress : t -> int -> bool
(** The node has an open incremental cycle. *)

val pin : t -> Ert.Oid.t -> unit
(** Make a harness-held object a root of every collection. *)

val over_threshold : t -> int -> bool

val due : t -> int -> bool
(** An open cycle must run on, or the heap crossed the threshold. *)

val collect : t -> int -> unit
(** Collect the node, or run its cycle's next increment. *)

val grey_segment : t -> int -> Ert.Thread.segment -> unit
val grey_addr : t -> int -> int -> unit
(** Grey a departing segment's roots or a departing object under the
    node's open cycle; no-ops without one. *)

val discard : t -> int -> unit
(** Abort the node's open cycle: it died with the node. *)

val restart : t -> int -> unit
(** Give the node's new kernel (a restart) its own cycle state. *)
