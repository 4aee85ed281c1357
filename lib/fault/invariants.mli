(** Cluster-wide correctness invariants, checkable between events.

    Between any two events every segment is parked at a bus stop and no
    kernel is mid-transition, so global properties of the simulated
    world are well defined.  These checkers are the oracle `emfuzz`
    sweeps fault plans against; the cluster also exposes them behind
    [emrun --check-invariants].

    Checked here (kernel-observable state only):
    - {b unique residency}: at most one node holds a resident (non-proxy)
      copy of any object.  An object may legitimately be resident nowhere
      while a move payload is in flight — and permanently nowhere once a
      loss was reported — so absence is not a violation; duplication
      (the failure mode of unsuppressed retransmits) is.
    - {b no orphaned segments}: no registered segment is [Dead], and no
      registered segment belongs to a thread already reported lost.
    - {b monitor/condition queue integrity}: a monitor's entry queue
      holds only registered segments blocked on that monitor; a lock
      with queued waiters must actually be held.
    - {b stack ownership}: no registered segment runs on a stack region
      in its node's free pool, no region is pooled twice, and registered
      segments share a region only when they belong to one thread (the
      runs a split left behind).
    - {b virtual-time monotonicity}: no node's clock ever runs backwards
      between checks ([last_times] carries the previous observation and
      is updated in place). *)

type violation = {
  v_invariant : string;  (** short invariant name *)
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check :
  n_nodes:int ->
  kernel:(int -> Ert.Kernel.t) ->
  crashed:(int -> bool) ->
  thread_failed:(Ert.Thread.tid -> bool) ->
  last_times:float array ->
  violation list
(** Run every checker over the live nodes; returns all violations found
    (empty = healthy).  [last_times] must be owned by the caller and
    reused across calls for the monotonicity check. *)
