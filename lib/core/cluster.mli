(** A simulated network of heterogeneous workstations (Figure 1).

    One kernel per node, connected by the simulated Ethernet, with the
    mobility protocols glued in.  Execution is a deterministic
    discrete-event simulation over virtual time: the node (or message
    delivery) with the smallest virtual timestamp runs next, so results
    and timings are reproducible. *)

type protocol = Transport.protocol =
  | Enhanced  (** the paper's heterogeneous system: machine-independent
                  conversion on every transfer *)
  | Original
      (** the original homogeneous system: raw copying, no format
          conversion — and migration between unlike architectures is
          refused, as it must be *)

type location = Locate.mode =
  | Loc_off
      (** no location subsystem: the event and byte streams are
          bit-identical to clusters built before it existed *)
  | Loc_directory
      (** forwarded invokes carry their hop trail ({!Marshal.M_invoke_via})
          and the node that finally hosts the target collapses the chain
          it walked with {!Marshal.M_loc_hint}s, so chains shorten to at
          most one hop after a single traversal; and the hash-partitioned
          location directory: every object has a deterministic home shard
          ({!Loc.Partition.home}), migrations publish batched updates to
          the homes, and an exhausted proxy chain asks the home shard (one
          unicast) before falling back to the broadcast search *)

type gc_mode = Collect.mode =
  | Gc_stw
      (** stop-the-world: the whole collection cycle in one call when the
          heap crosses the threshold, charged as one pause — the default *)
  | Gc_incremental
      (** the tri-color incremental tier (DESIGN.md §17): the same
          collection split into bounded increments interleaved with the
          event loop, each charged per slot scanned; live/swept
          accounting matches {!Gc_stw} exactly *)

exception Heterogeneous_move_in_original_protocol

exception Thread_unavailable of string
(** A thread's continuation was lost to a node crash. *)

type t

val create :
  ?protocol:protocol ->
  ?wire_impl:Enet.Wire.impl ->
  ?quantum:int ->
  ?gc_threshold:int ->
  ?gc_mode:gc_mode ->
  ?gc_budget:int ->
  ?faults:Fault.Plan.t ->
  ?async_migration:bool ->
  ?location:location ->
  archs:Isa.Arch.t list ->
  unit ->
  t
(** [quantum] switches every node to preemptive (Trellis/Owl-style)
    scheduling with the given instruction quantum; threads are then run
    forward to their next bus stop before any migration capture
    (section 2.2.1).  Default: the Emerald discipline — control transfers
    only at bus stops.

    [gc_threshold] arms automatic collection when a node's live heap
    bytes exceed it; [gc_mode] selects the collector tier (default
    {!Gc_stw}) and [gc_budget] bounds the pointer slots one incremental
    increment may scan (default 4096; must be positive).

    Every node runs {!Emc.Opt.O0} until {!set_opt_level} picks another
    code instance; threads moving between differently-optimized nodes
    land through bridge fragments (DESIGN.md §16).

    [faults] installs a deterministic fault plan (default
    {!Fault.Plan.empty}).  A non-trivial plan switches every protocol
    message onto a sequence-numbered, acknowledged transport with
    bounded-backoff retransmission and receiver-side duplicate
    suppression — exactly-once delivery, or a reported loss once the
    retry budget is spent — and schedules the plan's partitions and
    crash/restart windows.  A trivial plan changes nothing: the event
    sequence is bit-identical to a cluster built without one.

    [async_migration] hands the capture/translate/marshal pipeline of a
    migration to a background mover engine (DESIGN.md §13): the pipeline
    cost is charged so the payload's wire timestamp — and hence its
    arrival — matches the synchronous path exactly, then refunded
    against the source clock, so the source's other threads resume from
    the instant the capture began and the asynchronous run never
    finishes later than the synchronous one.  Default [false], which
    keeps timings bit-identical to earlier versions.

    [location] selects the location subsystem (default {!Loc_off}, which
    is bit-identical to clusters that predate it).  All directory and
    chain-collapse traffic uses dedicated message tags and is produced
    in deterministic (ascending node) order.
    @raise Invalid_argument on an empty [archs], a non-positive
    [gc_budget] or a fault plan that crashes or partitions a node out of
    range ({!Fault.Plan.check_nodes}). *)

val protocol : t -> protocol

val gc_mode : t -> gc_mode

val gc_in_progress : t -> int -> bool
(** Whether the node has an open incremental mark cycle (always [false]
    under {!Gc_stw}). *)

val location : t -> location

val directory_home : t -> Ert.Oid.t -> int
(** The object's home shard node under the cluster's partition map —
    deterministic in the OID and node count alone. *)

val directory_entry : t -> Ert.Oid.t -> int option
(** Peek (without counting a hit or miss) at the home shard's current
    entry for the object: its last published location, if any. *)

val directory_stats : t -> int * int * int * int
(** Totals over every node's directory shard:
    [(updates_applied, stale_dropped, lookup_hits, lookup_misses)]. *)

val n_nodes : t -> int
val kernel : t -> int -> Ert.Kernel.t
val kernels : t -> Ert.Kernel.t array
val repository : t -> Mobility.Code_repository.t
val network : t -> Enet.Netsim.t

val engine : t -> Engine.t
(** The event engine (heap depth, push/pop/stale counters). *)

val engines : t -> Engine.t array
(** [[| engine t |]], kept for callers that sum over engines. *)

val set_trace : t -> (string -> unit) -> unit
(** Subscribes a line-oriented listener to the bus: it receives
    {!Events.legacy_string} of every event that has one — byte-identical
    to the seed's trace output.  Each call adds a subscriber. *)

val subscribe_events : t -> (Events.t -> unit) -> unit
(** Subscribe to the typed trace/metrics bus. *)

val bus : t -> Events.bus
(** The bus itself, with its per-node counters. *)

val node_counters : t -> int -> Events.counters
val total_counter : t -> (Events.counters -> int) -> int
(** A bus counter summed over every node, e.g. finished collections
    ([c_collections]). *)

val enable_spans : t -> unit
(** Turn on migration span tracing (DESIGN.md §12): every move emits a
    root ["move"] span plus capture/translate/marshal/transfer/
    unmarshal/rebuild/relocate phase child spans, and every RPC round
    trip an ["rpc"] span, as {!Events.Ev_span} values on the bus.
    Spans measure virtual-time intervals and never charge the clocks,
    so enabling tracing cannot change simulated times; until this is
    called the pipeline does no span work at all. *)

val attach_profile : t -> Obs.Profile.t -> unit
(** {!enable_spans} plus a bus subscription feeding every closed span
    into [p] — per-(arch pair, phase) histograms and, unless the
    profile was created with [~keep_spans:false], the raw span list
    for {!Obs.Trace.to_json} export. *)

val load_program : t -> Emc.Compile.program -> unit
(** Register the compiled program with every node (and the repository). *)

val compile_and_load :
  ?levels:Emc.Opt.level list ->
  t ->
  name:string ->
  string ->
  Emc.Compile.program
(** Compile the source once for every architecture present and load it.
    [levels] lists the code instances to build, primary first; a node
    whose configured level is not among them runs the primary, so
    [~levels:[Emc.Opt.O1]] runs -O1 code everywhere.  Without [levels],
    the instance set is derived from the nodes' configured levels
    (primary -O0, the single-instance build when every node runs it). *)

val set_opt_level : t -> node:int -> Emc.Opt.level -> unit
(** Pick the code instance the node executes.  Must be called before
    any code is loaded on the node (the kernel refuses afterwards:
    resident threads' saved PCs address the old instance). *)

val bridge_stats : t -> int * int
(** Summed bridge-fragment cache [(hits, misses)] over every node —
    nonzero only when differently-optimized nodes exchanged threads
    parked at elided stops. *)

val create_object : t -> node:int -> class_name:string -> Ert.Oid.t
val where_is : t -> Ert.Oid.t -> int option

val spawn : t -> node:int -> target:Ert.Oid.t -> op:string -> args:Ert.Value.t list -> Ert.Thread.tid

val step_once : t -> bool
(** Process the next event; [false] when the cluster is quiescent.
    Pending balancing points ({!set_balancer}) are fired internally, so
    external drivers stepping the cluster themselves need no balancer
    plumbing of their own. *)

val run : ?max_events:int -> t -> unit
(** Run to quiescence.  @raise Failure if [max_events] is exceeded. *)

val run_until_result : ?max_events:int -> t -> Ert.Thread.tid -> Ert.Value.t option
(** Run until the given root thread finishes (wherever it finishes);
    returns its result. *)

val result : t -> Ert.Thread.tid -> Ert.Value.t option option

val checkpoint_thread : t -> node:int -> Ert.Thread.tid -> string
(** Suspend a thread resident on [node] into a machine-independent image:
    quiesces the node (preemptive mode), captures every segment through
    the bus-stop templates, and removes them.  See {!Mobility.Checkpoint}.
    @raise Mobility.Checkpoint.Not_checkpointable per its restrictions. *)

val restore_thread : t -> node:int -> string -> unit
(** Rebuild a checkpointed thread as native stacks on [node] — any
    architecture — and reschedule it.  The thread's objects must reside
    there. *)

val evict_thread : t -> node:int -> seg_id:int -> dest:int -> unit
(** Forcibly evict a running segment (DESIGN.md §13): arms
    {!Ert.Kernel.evict_thread}'s trap on [node].  If the segment is
    already capturable (parked at a bus stop, blocked on a monitor, or
    awaiting a reply) it is shipped to [dest] immediately; otherwise the
    kernel pins polling on for it and the trap fires at its next bus
    stop — no cooperative [move] in the program is needed.  The shipped
    closure is the object the segment is executing inside, so monitor
    queues and split stacks travel exactly as for a programmed move.
    Unknown, dead, or non-resident segments are ignored.
    @raise Invalid_argument if [dest] is not a node of the cluster. *)

val group_move : t -> node:int -> dest:int -> Ert.Oid.t list -> unit
(** Batched migration: capture the union closure of the given co-located
    roots — the objects, their attached closures, and every thread
    segment executing inside any of them — and ship it as a single
    {!Marshal.M_group_move} transfer over the wire.  One
    root ["move"] span covers the batch; its capture leg is the
    ["group_pack"] phase and the landing leg ["group_unpack"].  Roots
    not resident on [node] are skipped, and a batch that captures
    nothing sends nothing.  With the directory on, the landing publishes
    every moved object's new location in one batched update per home
    shard.
    @raise Invalid_argument if [dest] is not a node of the cluster;
    nothing is captured. *)

val chain_walk : t -> from:int -> Ert.Oid.t -> int option * int
(** Follow forwarding-proxy hints from [from] toward the object:
    [(host, hops)] where [host] is the hosting node if the walk reached
    one ([None] on a dead end or cycle).  A harness-side observer for
    tests and statistics — it sends nothing and charges nothing, so
    calling it cannot perturb a trace. *)

val set_balancer : t -> every_us:float -> (unit -> unit) -> unit
(** Install a load-balancing hook that fires every [every_us] of virtual
    time, between events: every event earlier than a firing point runs
    before it, every later one after.  The hook typically inspects per-node load
    ({!Ert.Kernel.ready_depth}, {!Obs.Profile} data) and calls
    {!evict_thread}.  The first firing point is [every_us] past the
    engine's frontier ({!Engine.now}) at the call. *)

val crash_node : t -> int -> unit
(** Fail-stop the node: its objects, code and thread segments are lost;
    packets to it are dropped.  Threads whose call chains passed through
    it become unavailable; threads entirely elsewhere keep running —
    Emerald's design goal of minimising residual dependencies. *)

val restart_node : t -> int -> unit
(** Reboot a crashed node as a fresh, amnesiac kernel (no objects, no
    segments, no transport state) on the same monotonic clock, with the
    last loaded program replayed into it.  No-op on a live node. *)

val is_crashed : t -> int -> bool
val thread_failure : t -> Ert.Thread.tid -> string option

val check_invariants : t -> Fault.Invariants.violation list
(** Run the {!Fault.Invariants} checkers over the cluster.  Call between
    events (after a {!step_once}), when every segment is parked at a bus
    stop; empty means healthy.  Monotonicity state is kept inside [t],
    so interleave calls freely. *)

val global_time_us : t -> float
(** Maximum virtual time across nodes. *)

val output : t -> node:int -> string
val events_processed : t -> int
