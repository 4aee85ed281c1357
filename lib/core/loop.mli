(** Which event runs next: the discrete-event loop over virtual time.

    Under {!Heap} the {!Engine} min-heap orders every pending event —
    message deliveries, scheduling slices, timed-wait wakes, collection
    increments, retransmission timers and the fault plan's crash
    windows — and each popped entry is revalidated (a stale one is
    rescheduled at its corrected, later time), so events run in exactly
    the order the seed's O(nodes) rescan would pick.  {!Scan} is that
    rescan, kept as the heap's reference. *)

type scheduler =
  | Heap
  | Scan
      (** sees only deliveries and scheduling slices: it refuses fault
          plans, incremental GC, balancers and timed waits *)

exception Thread_unavailable of string
(** A thread's continuation was lost to a node crash. *)

val require_heap : scheduler -> string -> unit
(** The one check of {!Scan}'s limits.
    @raise Invalid_argument naming the feature under {!Scan}. *)

type t

val create :
  sched:scheduler ->
  engine:Engine.t ->
  net:Enet.Netsim.t ->
  bus:Events.bus ->
  kernels:Ert.Kernel.t array ->
  down:bool array ->
  transport:Transport.t ->
  collect:Collect.t ->
  faults:Fault.Plan.t ->
  results:(Ert.Thread.tid, Ert.Value.t option) Hashtbl.t ->
  failures:(Ert.Thread.tid, string) Hashtbl.t ->
  outcall:(src:int -> Ert.Kernel.outcall -> unit) ->
  crash:(int -> unit) ->
  restart:(int -> unit) ->
  t
(** [kernels] and [down] are the cluster's node state, read here.
    [faults]' crash windows call [crash] and [restart]; every outcall a
    scheduling slice makes goes to [outcall].  [results] and [failures]
    are the cluster's finished and lost root threads. *)

val scheduler : t -> scheduler
val engine : t -> Engine.t
val events : t -> int
(** Events executed (stale pops excluded). *)

val ensure_step : t -> int -> unit
(** Queue a scheduling slice for the node if it has ready work. *)

val ensure_wake : t -> int -> unit
(** Queue a wake at the node's earliest timed-wait deadline. *)

val set_balancer : t -> every_us:float -> (unit -> unit) -> unit
(** Fire [f] every [every_us] of virtual time, between events.
    @raise Invalid_argument under {!Scan}. *)

val step_once : t -> bool
(** Run the next event, firing any balancing point due first; [false]
    when quiescent.
    @raise Invalid_argument under {!Scan} when nothing is runnable but
    a live node holds a timed wait. *)

val run : ?max_events:int -> t -> unit
val run_until_result : ?max_events:int -> t -> Ert.Thread.tid -> Ert.Value.t option
