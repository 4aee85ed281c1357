(** Which event runs next: the discrete-event loop over virtual time.

    The {!Engine} min-heap holds every pending event — message
    deliveries, scheduling slices, timed-wait wakes, collection
    increments, retransmission timers and the fault plan's crash
    windows — and pops them by virtual time, then by {!Engine}'s
    node-major rank.  Each popped entry is revalidated against the node
    it names; a stale one is rescheduled at its corrected, later time
    and executes nothing, so no event runs early. *)

exception Thread_unavailable of string
(** A thread's continuation was lost to a node crash. *)

type t

val create :
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

val engine : t -> Engine.t
val events : t -> int
(** Events executed (stale pops excluded). *)

val ensure_step : t -> int -> unit
(** Queue a scheduling slice for the node if it has ready work. *)

val ensure_wake : t -> int -> unit
(** Queue a wake at the node's earliest timed-wait deadline. *)

val set_balancer : t -> every_us:float -> (unit -> unit) -> unit
(** Fire [f] every [every_us] of virtual time, between events; the
    first firing point is [every_us] past the engine's frontier
    ({!Engine.now}) at the call. *)

val step_once : t -> bool
(** Run the next event, firing any balancing point due first; [false]
    when quiescent. *)

val run : ?max_events:int -> t -> unit
val run_until_result : ?max_events:int -> t -> Ert.Thread.tid -> Ert.Value.t option
