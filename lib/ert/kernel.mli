(** The per-node runtime kernel.

    One kernel per workstation: it owns the node's memory, text space,
    heap, object table and thread segments, executes native code on the
    virtual CPU, and services system calls.  The kernel is strictly
    node-local — anything involving another node (remote invocation,
    migration, remote returns) is surfaced as an {!outcall} for the
    cluster layer (which drives the network simulation and the mobility
    protocol) to handle.

    Control transfer discipline: the kernel regains control only at bus
    stops ([Syscall] instructions, loop-bottom polls, segment-bottom
    returns), so every suspended activation record it ever observes is at
    a bus stop — the prerequisite for both migration and garbage
    collection (sections 2.2.1, 3.2). *)

exception Runtime_error of string

type t

type loaded_class = {
  lc_class : Emc.Compile.compiled_class;
  lc_code : Isa.Code.t;
  lc_stops : Emc.Busstop.table;
  lc_image : Isa.Text.image;
  lc_desc_addr : int;  (** descriptor table in data memory *)
  lc_process : int;  (** method index of the process section, or -1 *)
  lc_at_stop : (loaded_class * Emc.Busstop.entry) option array;
      (** {!stop_at_pc}'s answer for each stop id of the class, built
          when the class loads *)
}

type outcall =
  | Oc_invoke of {
      seg : Thread.segment;
      target_oid : Oid.t;
      hint_node : int;
      callee_class : int;
      callee_method : int;
      args : Value.t list;
      stop_id : int;
    }  (** a trans-node invocation; the segment is awaiting the reply *)
  | Oc_move of {
      seg : Thread.segment;
      obj_addr : int;  (** local descriptor (resident object or proxy) *)
      dest_node : int;
    }
      (** a [move X to n] system call; the segment is parked at the stop
          and must be completed (wherever it ends up) by the mobility
          protocol *)
  | Oc_return of {
      link : Thread.link;
      value : Value.t;
      thread : Thread.tid;
    }  (** a segment-bottom return crossing to another node *)
  | Oc_start_process of {
      target_oid : Oid.t;
      hint_node : int;
    }  (** the object moved away during [initially]; start it over there *)
  | Oc_evict of {
      seg : Thread.segment;
      dest_node : int;
      armed_us : float;
    }
      (** a forced-eviction trap fired: the segment just became capturable
          (parked at a bus stop, blocked, or awaiting a reply) and must be
          shipped to [dest_node] by the mobility layer.  [armed_us] is the
          virtual time the trap was armed; the arm-to-fire window is the
          execution asynchronous migration overlaps the capture pipeline
          with *)

val create : ?clock:Sim.Clock.t -> node_id:int -> arch:Isa.Arch.t -> unit -> t
(** [clock] supplies the node's virtual clock (by default a fresh one);
    passing it in lets an embedding simulation share or observe it. *)

val serials : t -> int * int * int
(** Current (object, thread, segment) serial counters — the node's
    stable-storage incarnation state. *)

val inherit_serials : t -> int * int * int -> unit
(** Raise this kernel's serial counters to at least the given floor.  A
    rebooted node must never re-mint an OID or TID its previous
    incarnation already issued (copies may survive elsewhere in the
    cluster), so a restart carries the crashed kernel's counters into
    its replacement. *)

val node_id : t -> int
val arch : t -> Isa.Arch.t
val mem : t -> Isa.Memory.t
val heap : t -> Heap.t

(* virtual time and cost accounting *)
val clock : t -> Sim.Clock.t
(** The node's virtual clock; all time accounting below goes through it. *)

val time_us : t -> float
val set_time_us : t -> float -> unit
val charge_insns : t -> int -> unit
(** Charge kernel software work, costed at the node's MIPS rating. *)

val charge_us : t -> float -> unit
(** Charge fixed (CPU-independent) virtual time. *)

val credit_us : t -> float -> unit
(** Roll virtual time back by the given amount (clamped at zero).  Used by
    asynchronous migration to refund capture work that was overlapped with
    continued execution. *)

val insns_executed : t -> int
val syscalls_handled : t -> int

(* console *)
val output : t -> string

(* program and code management *)
val load_program : t -> Emc.Compile.program -> unit
val program : t -> Emc.Compile.program
val loaded_class : t -> int -> loaded_class
(** Loads (code object fetch, descriptor table and string-literal
    construction) on first use; after that, an array index. *)

(* objects *)
val create_object : t -> class_index:int -> int
val find_object : t -> Oid.t -> int option
(** Resident objects only. *)

val proxy_of : t -> Oid.t -> int option

val ref_addr : t -> int -> int
(** The resident descriptor for the OID whose {!Oid.intern} image is
    the key, else its proxy, else 0: the lookup of {!ensure_ref} without
    the proxy creation, allocating nothing. *)

val ensure_ref : t -> Oid.t -> int
(** Local address for an OID: the resident descriptor, an existing proxy,
    or a fresh proxy whose forwarding hint is the OID's creator node. *)

val set_proxy_hint : t -> addr:int -> node:int -> unit
val oid_at : t -> int -> Oid.t
val is_resident : t -> int -> bool
val proxy_hint : t -> int -> int
val class_of_object : t -> int -> int
val install_object : t -> oid:Oid.t -> class_index:int -> int
(** Allocate a resident descriptor for an arriving object (fields are
    filled by the unmarshaller); replaces any proxy for the OID. *)

val evict_object : t -> addr:int -> forward_to:int -> unit
(** Turn a resident descriptor into a forwarding proxy (after move-out). *)

val objects : t -> (Oid.t * int) list

val iter_objects : t -> (Oid.t -> int -> unit) -> unit
(** Iterate the resident objects without building the assoc list; dense
    slot order (deterministic in the operation sequence). *)

val fold_blocks : t -> (addr:int -> size:int -> 'a -> 'a) -> 'a -> 'a
(** Fold over the blocks the collector may sweep (objects, proxies,
    strings and vectors), in ascending address order. *)

val block_count : t -> int
(** How many blocks {!fold_blocks} visits. *)

val free_block : t -> int -> unit
(** Return a swept block to the allocator and drop its table entries;
    does nothing for an address that is not a block. *)

val string_literal_addrs : t -> int array
(** String blocks owned by loaded code objects (GC roots), in the order
    their classes loaded.  The kernel's own array: do not mutate it. *)

val make_string : t -> string -> int
val make_vector : t -> kind:int -> len:int -> int
val is_vector_block : t -> int -> bool

val attached_refs : t -> addr:int -> int list
(** Addresses held in attached fields of a resident object. *)

(* value conversion *)
val value_of_raw : t -> Emc.Ast.typ -> int32 -> Value.t
val raw_of_value : t -> Value.t -> int32

(* bus stops *)
val stop_at_pc : t -> int -> (loaded_class * Emc.Busstop.entry) option
(** Resolve an absolute PC to the loaded class and bus stop it parks at.
    A PC inside a bridge fragment resolves to the real class and the
    elided stop the fragment bridges — capture inside a bridge looks
    identical to capture at the stop itself.  The answer is one of the
    class's [lc_at_stop], found through {!Isa.Text.find}, the code-OID
    table and {!Emc.Busstop.id_of_pc}: a lookup allocates nothing. *)

val stop_by_id : t -> class_index:int -> stop_id:int -> Emc.Busstop.entry
val frame_info : t -> class_index:int -> method_index:int -> Emc.Busstop.frame_info

val result_type : t -> class_index:int -> method_index:int -> Emc.Ast.typ option
(** The method's result type; [None] for a resultless operation. *)

val resume_abs : t -> class_index:int -> Emc.Busstop.entry -> int
(** Absolute resume PC for a thread parked at the stop: the stop's PC in
    this node's class image, or — when this node's instance elided the
    stop — the base of a (cached) compiled bridge fragment
    ([Poll stop; Jmp_abs resume], section 2.4) that re-enters the image
    without executing any source-level action. *)

val bridge : t -> Bridge.t
(** This node's bridge-fragment cache (statistics). *)

val set_bridge_cache : t -> Bridge.t -> unit
(** Point the kernel at a shared bridge-fragment cache (the code
    repository keeps one per node so hit/miss counters survive a node
    restart; the restart path clears the fragments themselves, which
    address the dead kernel's text). *)

(* threads and segments *)
val segments : t -> Thread.segment list
val find_segment : t -> int -> Thread.segment option
val fresh_tid : t -> Thread.tid
val fresh_seg_id : t -> int
val stack_bytes : int
val alloc_stack : t -> int
(** Take a stack region — the most recently pooled one, zero-filled, or a
    fresh one from the heap — and hold it for the segment about to be
    registered on it; returns its top (highest) address. *)

val register_segment : t -> Thread.segment -> unit

val unregister_segment : t -> Thread.segment -> unit
(** Take a segment out of the segment table.  Its stack stays held, so
    the runs of a split can be re-registered on it; follow with
    {!release_stack}. *)

val release_stack : t -> Thread.segment -> unit
(** Pool the segment's stack region unless a registered segment still
    runs on it.  Idempotent: a region already pooled stays pooled once. *)

val retire_segment : t -> Thread.segment -> unit
(** A segment dies here: mark it [Dead], unregister it and release its
    stack. *)

val pooled_stacks : t -> int list
(** Tops of the free stack regions, next to be reused first. *)

val set_seg_forward : t -> seg_id:int -> node:int -> unit
(** Leave a forwarding address for a migrated segment, so late replies can
    chase it. *)

val seg_forward : t -> seg_id:int -> int option
val enqueue_ready : t -> Thread.segment -> unit

val spawn_root :
  t -> target_addr:int -> method_name:string -> args:Value.t list -> Thread.tid
(** @raise Runtime_error if the object has no such operation, or [args]
    does not match the operation's parameter count. *)

val spawn_exact :
  t ->
  spawn:Thread.spawn_info ->
  link:Thread.link option ->
  thread:Thread.tid ->
  seg_id:int ->
  status:Thread.status ->
  Thread.segment
(** Install a segment with an explicit id and status (used when rebuilding
    a migrated, never-executed segment). *)

val spawn_rpc :
  t ->
  target_addr:int ->
  callee_class:int ->
  callee_method:int ->
  args:Value.t list ->
  link:Thread.link ->
  thread:Thread.tid ->
  Thread.segment

val start_process_if_any : t -> target_addr:int -> Thread.tid option
(** Start the object's Emerald process section (if its class declares
    one) as an independent thread; returns its id. *)

val deliver_result : t -> Thread.segment -> Value.t -> unit
val root_result : t -> Thread.tid -> Value.t option option
(** [Some r] once the root thread has finished ([r = None] for a
    resultless operation). *)

val fold_root_results : t -> (Thread.tid -> Value.t option -> 'a -> 'a) -> 'a -> 'a
(** Fold over delivered-but-unread root results — the collector treats
    their values as roots until the harness reads them.  An empty table
    returns the accumulator without a traversal. *)

(* monitors *)
val monitor_locked : t -> obj_addr:int -> bool
val set_monitor_locked : t -> obj_addr:int -> bool -> unit
val monitor_waiters : t -> obj_addr:int -> Thread.segment list

val condition_waiters : t -> obj_addr:int -> cond:int -> Thread.segment list
(** Segments waiting on one of the object's monitor conditions, in queue
    order. *)

val monitor_enqueue_blocked :
  t -> obj_addr:int -> ?cond:int -> ?deadline:float -> Thread.segment -> unit
(** Re-enqueue a migrated-in segment that was blocked on this monitor
    ([cond] selects a condition queue; default: the entry queue;
    [deadline] restores a timed wait's expiry). *)

(* timed waits *)
val next_timeout : t -> float option
(** Earliest wait-timeout deadline among this node's blocked segments, if
    any — the virtual time at which {!expire_timeouts} next has work. *)

val expire_timeouts : t -> now:float -> int
(** Expire every timed wait whose deadline is [<= now], in deterministic
    (deadline, segment id) order.  An expired waiter leaves its condition
    queue; if the monitor is free it takes the lock and becomes ready at
    once, otherwise it lines up on the entry queue like a signalled
    waiter.  Returns the number of waits expired. *)

val set_on_code_load : t -> (unit -> unit) -> unit
(** Called on each first-time code-object load (for repository fetch
    accounting). *)

val set_on_root_result : t -> (thread:Thread.tid -> Value.t option -> unit) -> unit
(** Called when a root thread (no reply link) finishes on this node, so
    the embedding cluster can track completions without scanning every
    node. *)

val set_on_ref_graft : t -> (int -> unit) option -> unit
(** Install (or, with [None], remove) the incremental collector's graft
    hook: it receives every block address that reaches machine registers
    or a fresh call frame outside the memory store path — [ensure_ref]
    results (resident objects and reused proxies) and spawn targets — so
    a mark cycle in progress can grey addresses the write barrier cannot
    see.  Installed only while a cycle is active. *)

val set_quantum : t -> int option -> unit
(** [Some q] switches to preemptive (Trellis/Owl-style) scheduling: a
    slice is bounded by [q] instructions and a thread may be left between
    bus stops; use {!advance_to_stop} before capturing its state.
    [None] (the default) is the Emerald discipline: control transfers only
    at bus stops. *)

val quantum : t -> int option

val set_dispatch_cache : t -> Isa.Dispatch.cache -> unit
(** Point the kernel at a shared translated-code cache (the code
    repository keeps one per node, so translations survive the kernel
    they were made for — stale tables are voided by the engine's memory
    identity check). *)

val dispatch_stats : t -> Isa.Dispatch.stats
(** Translation and slice counters of this kernel's dispatch cache. *)

val set_threaded : t -> bool -> unit
(** [false] forces the baseline fetch/decode interpreter
    ({!Isa.Machine.run}); [true] (the default) executes through the
    pre-decoded dispatch engine ({!Isa.Dispatch.run}).  The two are
    observationally identical; the switch exists for differential tests
    and the interpreter benchmark. *)

val set_opt_level : t -> Emc.Opt.level -> unit
(** Select which code instance this node runs: the program's
    [(arch, level)] instance when compiled, else the program's primary
    instance.  Must be set before any code is loaded.
    @raise Failure after a class has been loaded at a different level. *)

val opt_level : t -> Emc.Opt.level

val at_stop : t -> Thread.segment -> bool
(** Is this segment's state well defined (at a bus stop / fully
    machine-describable)?  Always true under the default discipline. *)

(* forced eviction *)
val capturable : t -> Thread.segment -> bool
(** May this segment be captured for migration right now?  True when it is
    live and suspended at a well-defined point (parked at a stop, blocked
    on a monitor queue, or awaiting a remote reply). *)

val evict_thread : t -> seg_id:int -> dest_node:int -> outcall list
(** Arm a forced-eviction trap on the segment.  If the segment is already
    capturable the trap fires immediately and the returned list carries the
    [Oc_evict]; otherwise the segment runs with polling pinned on and the
    trap fires at its very next bus stop — no cooperative poll request is
    involved.  Unknown or dead segments are ignored. *)

val evictions : t -> int
(** Eviction traps fired on this node so far. *)

val evictions_armed : t -> int
(** Eviction traps currently armed and waiting for a bus stop. *)

val ready_depth : t -> int
(** Current run-queue depth. *)

val peak_ready_depth : t -> int
(** High-water mark of the run-queue depth. *)

val advance_to_stop : t -> Thread.segment -> outcall list
(** Execute a preempted segment natively forward to its next bus stop
    (section 2.2.1's Trellis/Owl technique).  System calls are not
    dispatched — the segment parks at the stop.  Returns any cross-node
    actions produced by a segment-bottom return along the way. *)

(* execution *)
val step : t -> outcall list
(** Run one scheduling slice: dispatch the next ready segment and execute
    it to its next control transfer.  Returns the cross-node actions it
    produced (empty when idle or when the work stayed local).  Without a
    quantum a slice has 50M instructions of fuel; a segment that spends
    them (one running alone, never asked to poll) is asked to poll and
    runs on to its next bus stop in the same slice. *)

val has_ready : t -> bool
val live_segment_count : t -> int

val segment_by_rank : t -> int -> Thread.segment
(** [segment_by_rank k i], for [0 <= i < live_segment_count k]: the
    registered segments in ascending id, without a list — the
    collector's scan order. *)
