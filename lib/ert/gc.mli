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
      completion in one call.

    A node keeps one cycle state ({!t}) for all its cycles: its arrays
    grow and are reused, and its barrier and graft hook are made once,
    so no cycle allocates. *)

type t
(** A node's collection cycle state, reused from one cycle to the next.
    While a cycle is open the kernel's memory carries the write barrier
    and its graft hook is installed; {!step} to completion, or {!abort}
    (e.g. on node crash), detaches both. *)

val create : Kernel.t -> t
(** A closed state for the kernel's cycles.  A restarted node has a new
    kernel, and so needs a new state. *)

type phase =
  | Proots  (** about to scan the root set (first increment) *)
  | Pmark  (** draining the grey worklist *)
  | Psweep  (** freeing unmarked snapshot blocks *)

val phase_name : phase -> string
(** ["gc_roots"], ["gc_mark"], ["gc_sweep"] — span/histogram keys. *)

val start : t -> extra_roots:Oid.t list -> extra_addrs:int list -> unit
(** Open a cycle: snapshot the block population (a copy of the kernel's
    address-ordered block table), whiten it, and install the write
    barrier and graft hook.  No scanning happens yet; the first {!step}
    scans the roots (the node must be quiesced for that call, exactly as
    for {!collect}).  [extra_roots] pins objects held by the embedding
    harness (objects are otherwise reachable only through thread state
    and other objects); [extra_addrs] pins raw block addresses the same
    way.
    @raise Invalid_argument if the state's cycle is already open. *)

val step : t -> budget:int -> int
(** Run one bounded increment ([budget] is clamped to at least 1 slot)
    and return the slots it scanned.  The increment that finishes the
    sweep closes the cycle ({!is_open} turns false) and detaches the
    hooks; a closed state's step scans nothing. *)

val collect : t -> extra_roots:Oid.t list -> extra_addrs:int list -> unit
(** {!start} followed by one unbounded {!step}; read the outcome with
    {!live}, {!swept} and {!bytes_freed}.
    @raise Kernel.Runtime_error if a segment is running (collect only
    between scheduling slices); the cycle is closed again. *)

val is_open : t -> bool

val phase : t -> phase
(** The phase the open cycle continues in; [Psweep] once it finished. *)

val live : t -> int
(** Blocks marked reachable by the current (or last) cycle. *)

val swept : t -> int
(** Blocks it reclaimed. *)

val bytes_freed : t -> int

val abort : t -> unit
(** Discard the cycle's mark state and detach the barrier and graft
    hook — the crash-mid-cycle path; the next cycle starts from
    scratch, exactly like the location directory's soft-state rule. *)

val grey_segment : t -> Thread.segment -> unit
(** Migration send-off: grey the departing segment's current roots
    before it is captured out of the root set. *)

val grey_addr : t -> int -> unit
(** Grey one block address (no-op for addresses outside the snapshot or
    already marked). *)
