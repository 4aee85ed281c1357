(** The simulation-testing harness behind [emfuzz] and the fault tests.

    Each seed deterministically derives a whole scenario — cluster size,
    workload, and fault plan (message loss, duplication, delay, a
    partition window, a crash/restart window) — runs it with the
    cluster invariants checked between events, and classifies the run:

    - {b ok}: the root thread completed, or was aborted with a reported
      unavailability (the protocol's two legitimate outcomes);
    - {b violation}: an invariant tripped, the cluster went quiescent
      with the thread neither finished nor reported lost, or the event
      budget was exhausted (livelock).

    A failing seed is a complete reproducer: the same seed replays the
    same run bit-for-bit.  {!shrink} then greedily removes plan
    components (probabilities, partitions, crash windows) while the
    failure persists, leaving a minimal plan. *)

type verdict =
  | Completed of string  (** printed root-thread result *)
  | Unavailable of string  (** aborted, with the loss reported *)
  | Stuck of string  (** liveness failure: neither of the above *)
  | Invariant of Fault.Invariants.violation list

type outcome = {
  f_seed : int;
  f_plan : Fault.Plan.t;
  f_verdict : verdict;
  f_ok : bool;  (** [Completed] or [Unavailable] *)
  f_events : int;
  f_virtual_us : float;
  f_moves : int;  (** migrations landed *)
  f_evictions : int;  (** forced-eviction traps fired (0 without [evict]) *)
  f_faults : int;  (** wire faults injected *)
  f_retransmits : int;
  f_dups : int;  (** duplicates suppressed *)
  f_group_moves : int;  (** batched group transfers sent (0 without [groups]) *)
  f_trace : string list;  (** last trace lines, oldest first *)
}

val plan_of_seed : rng:Fault.Rng.t -> n_nodes:int -> Fault.Plan.t
(** Draw a randomized fault plan (the distribution [emfuzz] sweeps);
    [pl_seed] is left 0 — callers install the scenario seed. *)

val scenario_nodes : int -> int
(** The number of nodes the seed's scenario runs on. *)

val run_seed :
  ?plan:Fault.Plan.t ->
  ?drop:float ->
  ?evict:bool ->
  ?groups:bool ->
  ?gc:bool ->
  ?check_every:int ->
  ?max_events:int ->
  ?trace_lines:int ->
  seed:int ->
  unit ->
  outcome
(** Run one scenario.  [plan] overrides the seed-derived fault plan
    (used by {!shrink}); [drop] overrides just the loss probability
    (the sweep-at-30%-loss configuration); [evict] installs the
    {!Workloads.hot_spot_balancer}, so forced-eviction captures race the
    fault plan (default false); [groups] builds the cluster with
    {!Cluster.Loc_directory} and rotates a three-object flock around the
    ring as one {!Cluster.group_move} per balancing point, so batched
    transfers and directory publish/lookup traffic race the fault plan
    too (default false); [gc] arms the incremental collector
    ({!Cluster.Gc_incremental}, a deliberately small threshold and
    budget) so open mark cycles, the write barrier, migration send-off
    greying and crash-mid-cycle discard all race the fault plan
    (default false); [check_every] runs the
    invariant checkers every that-many events (default 1);
    [trace_lines] bounds the kept trace tail (default 120). *)

val shrink :
  ?drop:float -> ?evict:bool -> ?groups:bool -> ?gc:bool ->
  ?check_every:int -> ?max_events:int -> seed:int ->
  Fault.Plan.t -> Fault.Plan.t
(** Greedily remove plan components while the seed still fails;
    returns the smallest still-failing plan found.  [drop] sets the
    starting plan's loss probability, as {!run_seed}'s does; each
    candidate then runs as it is, so the returned plan fails when run
    alone ([run_seed ~plan]). *)

val sweep :
  ?drop:float ->
  ?evict:bool ->
  ?groups:bool ->
  ?gc:bool ->
  ?check_every:int ->
  ?max_events:int ->
  ?on_outcome:(outcome -> unit) ->
  seeds:int list ->
  unit ->
  outcome option
(** Run every seed, reporting each outcome; returns the first failing
    outcome (remaining seeds are not run), or [None] if all pass. *)
