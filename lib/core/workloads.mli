(** Benchmark workloads: the programs behind every reproduced table and
    figure (see DESIGN.md's per-experiment index). *)

val table1_src : string
(** The Table 1 workload: a small thread (13 variables in the moved
    fragment) that measures, with the virtual clock, the cost of moving
    itself to another node and back ([X -> Y -> X], two moves per
    iteration). *)

val intranode_src : string
(** The section 3.6 intra-node workload: an invocation- and
    arithmetic-heavy loop, used to check that a node runs migrated threads
    at exactly native speed. *)

val fig2_src : string
(** The Figure 2 workload: a pure computation run at all three levels of
    the thread-state specialization hierarchy. *)

type roundtrip = {
  rt_us_per_trip : float;  (** virtual microseconds per X->Y->X round trip *)
  rt_bytes_sent : int;
  rt_messages : int;
  rt_conversion_calls : int;
  rt_retransmits : int;  (** frames retransmitted (0 without a fault plan) *)
  rt_host_seconds : float;  (** wall time spent simulating *)
}

val table1_src_sized : n_vars:int -> string
(** The Table 1 workload with a configurable number of live integer
    variables in the moved fragment (the paper's thread carried 13). *)

val measure_roundtrip :
  ?protocol:Cluster.protocol ->
  ?wire_impl:Enet.Wire.impl ->
  ?faults:Fault.Plan.t ->
  ?n_vars:int ->
  home:Isa.Arch.t ->
  dest:Isa.Arch.t ->
  iters:int ->
  unit ->
  roundtrip
(** Build a two-node cluster, run the Table 1 workload, and report the
    per-round-trip cost from the program's own virtual-clock measurement. *)

type intranode = {
  in_result : int;
  in_virtual_us : float;
  in_insns : int;
  in_host_seconds : float;
}

val measure_intranode :
  ?levels:Emc.Opt.level list ->
  arch:Isa.Arch.t ->
  migrated:bool ->
  n:int ->
  unit ->
  intranode
(** Run the intra-node loop on a node of the given architecture; with
    [migrated] the thread first migrates in from another node, so the
    measurement shows whether arriving threads run any slower (they must
    not).  [levels] is passed to {!Cluster.compile_and_load}. *)

val scaling_src : string
(** The engine-scaling workload: an agent tours the ring of nodes,
    spinning briefly at each stop; under a small preemptive quantum the
    run decomposes into many cheap events, so event-selection cost
    dominates. *)

type scaling = {
  sc_nodes : int;
  sc_result : int;  (** the workload's own result (a determinism digest) *)
  sc_events : int;
  sc_virtual_us : float;
  sc_host_seconds : float;  (** wall time of the event loop *)
  sc_events_per_sec : float;
}

val measure_scaling :
  ?quantum:int ->
  ?faults:Fault.Plan.t ->
  n_nodes:int ->
  hops:int ->
  spins:int ->
  unit ->
  scaling
(** Run the scaling workload on an [n_nodes] cluster and report events
    per wall-clock second of the event loop. *)

val hotspot_src : string
(** The eviction workload: compute-bound workers that never move or
    poll on their own; only forced eviction can spread them off their
    spawn node.  Each worker's result digest encodes the node it
    finished on. *)

val hot_spot_balancer : ?threshold:int -> Cluster.t -> unit -> unit
(** A deterministic hot-spot load balancer for {!Cluster.set_balancer}:
    each firing compares per-node run-queue depths
    ({!Ert.Kernel.ready_depth}) and, when the deepest exceeds the
    shallowest by at least [threshold] (default 2), arms a forced
    eviction of the lowest-id runnable segment on the hot node toward
    the cool one.  At most one eviction fires per 25 ms cooldown window,
    giving in-flight payloads time to land before the next depth
    reading.  A function of kernel state and virtual time only, so its
    decisions are deterministic.

    Thresholds below 2 can live-lock: moving a segment from a depth-1
    node to an empty one merely swaps the imbalance, so a lone thread
    ping-pongs forever without ever executing.  With [threshold >= 2]
    every eviction strictly narrows the depth spread. *)

val cluster_src : string
(** The location-directory workload: chasers repeatedly invoke cells
    they hold stale references to while the cells tour the ring as
    batched group migrations. *)

type cluster_run = {
  cr_nodes : int;
  cr_objects : int;  (** resident population created *)
  cr_result : int;  (** sum of chaser digests *)
  cr_expected : int;  (** what the digests must sum to *)
  cr_events : int;
  cr_virtual_us : float;
  cr_host_seconds : float;  (** wall time including population setup *)
  cr_run_seconds : float;  (** wall time of the event loop only *)
  cr_events_per_sec : float;  (** events / [cr_run_seconds] *)
  cr_messages : int;
  cr_bytes : int;
  cr_locates : int;  (** remote invokes that reached their target *)
  cr_locate_hops : int;  (** forwarding hops summed over those *)
  cr_mean_hops : float;  (** [cr_locate_hops / cr_locates]; the gate is <= 2 *)
  cr_collapses : int;  (** proxy chains shortened by hints *)
  cr_dir_updates : int;  (** batched directory updates sent *)
  cr_dir_applied : int;
  cr_dir_stale : int;  (** last-writer-wins rejections *)
  cr_dir_hits : int;
  cr_dir_misses : int;
  cr_group_moves : int;  (** batched transfers sent *)
  cr_group_objects : int;  (** objects carried by them *)
}

val measure_cluster :
  ?flock:int ->
  ?askers:int ->
  ?calls:int ->
  ?rounds:int ->
  n_nodes:int ->
  n_objects:int ->
  unit ->
  cluster_run
(** Build an [n_nodes] homogeneous cluster with the location directory
    on, populate it with [n_objects] cells ([flock] of them co-located
    on node 0, the rest round-robin), spawn [askers] chasers each
    invoking a flock member [calls] times, and rotate the flock
    [rounds] hops around the ring with {!Cluster.group_move} while they
    chase. *)

type evict_run = {
  er_result : int;  (** sum of worker digests (encodes final placement) *)
  er_virtual_us : float;
  er_events : int;
  er_evictions : int;  (** eviction traps fired, summed over nodes *)
  er_peak_depth_home : int;  (** run-queue high-water mark on node 0 *)
  er_final_spread : int list;  (** node each worker finished on *)
  er_trace : string;  (** full event-bus trace (byte-identity checks) *)
  er_phase_table : string;  (** {!Obs.Profile} phase table incl. evict/overlap *)
  er_host_seconds : float;
}

val measure_evict :
  ?async_migration:bool ->
  ?workers:int ->
  ?every_us:float ->
  ?threshold:int ->
  n_nodes:int ->
  rounds:int ->
  spins:int ->
  unit ->
  evict_run
(** Spawn [workers] hotspot workers on node 0 of an [n_nodes]
    homogeneous cluster, install {!hot_spot_balancer}, and run to
    quiescence.  With [async_migration] the capture/translate/marshal
    pipeline runs on the background mover engine and its cost is
    refunded against the source clock, so [er_virtual_us] is never
    larger than the synchronous run's. *)
