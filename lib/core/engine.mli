(** The discrete-event engine: a binary min-heap of pending simulation
    events keyed on virtual time, O(log pending) per event.

    Simultaneous events have a *total* order: time, then node-major
    rank (per node the kinds order Chaos < Gc < Deliver < Wake < Step <
    Timer).  The engine keeps at most one pending entry per (kind,
    node), which is one rank, so no two entries share a key and the
    order cannot depend on heap insertion order.  The heap holds ranks
    alone, at most [n_nodes * 6] of them, and a take hands back the
    popped rank: {!kind} and {!node} read it, so taking and scheduling
    build nothing.

    Scheduled times are allowed to go stale — a node's clock advances
    after its step was queued, or a message queue's head changes.  The
    executor re-validates each popped entry and {!reschedule}s it at the
    corrected time, which is always later, so no event can run early.
    The heap, flags and counters here are deliberately not exposed. *)

type kind =
  | Chaos  (** the node's next scheduled crash/restart window opens *)
  | Gc  (** automatic collection on the node *)
  | Deliver  (** deliver the node's next arrived message *)
  | Wake  (** the node's earliest monitor wait-timeout deadline is due *)
  | Step  (** run one kernel scheduling slice on the node *)
  | Timer  (** the node's earliest retransmission deadline is due *)

type t

val create : n_nodes:int -> unit -> t

val now : t -> float
(** Virtual time of the most recently popped event (the frontier). *)

val schedule : t -> at:float -> kind -> int -> unit
(** [schedule t ~at kind node] queues an entry; a duplicate of an
    already-queued (kind, node) pair is dropped. *)

val reschedule : t -> at:float -> kind -> int -> unit
(** Re-queue a popped-but-stale entry at its corrected time; counted
    separately in {!stale_pops}. *)

val is_empty : t -> bool

val before : t -> float -> bool
(** [before t horizon]: the earliest pending entry is due before
    [horizon] (false when none is pending).  The loop stops at a
    load-balancing point without disturbing the heap. *)

val take : t -> int
(** Remove the earliest entry and return its rank, advancing the
    frontier clock; the popped entry's time is readable as [now t]
    afterwards.  For the per-event hot loop.
    @raise Invalid_argument when nothing is pending. *)

val kind : int -> kind
val node : int -> int
(** The kind and the node of a rank {!take} returned. *)

val pending : t -> int

(** {1 Instrumentation} *)

val pushes : t -> int
val pops : t -> int
val stale_pops : t -> int
(** Pops that were bookkeeping only (revalidation failed and the event
    was rescheduled); [pops - stale_pops] bounds the executed events. *)
