(** Mark-sweep garbage collection over a node's heap.

    The collector runs between scheduling slices, when every thread
    segment is suspended at a bus stop; the per-stop templates then
    identify exactly which activation-record slots hold pointers —
    "in Emerald, this technique is also used to provide the garbage
    collector with well-defined states for easy pointer identification"
    (section 2.2.1).

    Collected: object descriptors, proxies, string and vector blocks.
    Roots: live pointer slots of every suspended frame, pending machine-
    independent values attached to segments (spawn arguments, undelivered
    results), monitor objects with queued waiters, root-thread results
    not yet read by the harness, and the code objects' string literals.
    Kernel-owned structures (descriptor tables, monitor queue nodes,
    stacks) are not subject to collection.

    One collection cycle serves both tiers, so they share the root
    scan, the mark loop, the walk over a block's pointer fields and the
    sweep (DESIGN.md §17):

    - {!start}/{!step} run the cycle incrementally: snapshot-at-beginning
      tri-color marking with an array-backed color map, a combined
      Yuasa+Dijkstra write barrier on the node's 32-bit stores,
      allocate-black for blocks created mid-cycle, and a kernel graft
      hook for addresses that reach registers without a store.  Each
      {!step} call scans at most [budget] pointer slots (after the
      first, which scans the whole root set — proportional to suspended
      segments, not heap size), so the caller can interleave increments
      with execution and charge virtual time per increment.
    - {!collect} is the stop-the-world tier: the same cycle run to
      completion in one call. *)

type stats = {
  gc_live : int;  (** blocks marked reachable *)
  gc_swept : int;  (** blocks reclaimed *)
  gc_bytes_freed : int;
}

val collect : ?extra_roots:Oid.t list -> ?extra_addrs:int list -> Kernel.t -> stats
(** {!start} followed by one unbounded {!step}.  [extra_roots] pins
    objects held by the embedding harness (objects are otherwise
    reachable only through thread state and other objects);
    [extra_addrs] pins raw block addresses the same way.  Must not run
    on a kernel with an open cycle: it would replace that cycle's
    barrier and graft hook, and remove them when it finishes.
    @raise Kernel.Runtime_error if a segment is running (collect only
    between scheduling slices). *)

type cycle
(** An in-progress incremental collection on one kernel.  While a cycle
    is live the kernel's memory carries the write barrier and its graft
    hook is installed; {!step} to completion, or {!abort} (e.g. on node
    crash), detaches both. *)

type phase =
  | Proots  (** about to scan the root set (first increment) *)
  | Pmark  (** draining the grey worklist *)
  | Psweep  (** freeing unmarked snapshot blocks *)

val phase_name : phase -> string
(** ["gc_roots"], ["gc_mark"], ["gc_sweep"] — span/histogram keys. *)

type progress =
  | Step_more of { scanned : int; phase : phase }
      (** the increment scanned [scanned] slots and the cycle continues
          in [phase] *)
  | Step_done of { scanned : int; stats : stats }
      (** the sweep finished (after scanning [scanned] more slots);
          hooks are detached *)

val start : ?extra_roots:Oid.t list -> ?extra_addrs:int list -> Kernel.t -> cycle
(** Snapshot the block population, whiten it, and install the write
    barrier and graft hook.  No scanning happens yet; the first {!step}
    scans the roots (the node must be quiesced for that call, exactly as
    for {!collect}). *)

val step : cycle -> Kernel.t -> budget:int -> progress
(** Run one bounded increment ([budget] is clamped to at least 1 slot).
    After [Step_done] the cycle must not be stepped again. *)

val abort : cycle -> Kernel.t -> unit
(** Discard the cycle's mark state and detach the barrier and graft
    hook — the crash-mid-cycle path; the next cycle starts from
    scratch, exactly like the location directory's soft-state rule. *)

val grey_segment : cycle -> Kernel.t -> Thread.segment -> unit
(** Migration send-off: grey the departing segment's current roots
    before it is captured out of the root set. *)

val grey_addr : cycle -> Kernel.t -> int -> unit
(** Grey one block address (no-op for addresses outside the snapshot or
    already marked). *)

val segment_roots : Kernel.t -> Thread.segment -> int list
(** The block addresses a suspended segment keeps live (frame slots via
    the bus-stop templates, suspension values, monitor-waiter state, or
    — for a never-dispatched segment — its spawn target and
    arguments). *)
