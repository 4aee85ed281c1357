module K = Ert.Kernel
module T = Ert.Thread
module CS = Enet.Conversion_stats
module CM = Mobility.Cost_model
module E = Events

type protocol =
  | Enhanced
  | Original

type scheduler =
  | Heap
  | Scan

(* The location subsystem (DESIGN.md §14).  [Loc_off] is the seed
   behaviour: forwarding proxies only, broadcast search on exhaustion —
   and bit-identical traffic, because every new message tag and event
   below is produced only when a mode is enabled.  [Loc_collapse] adds
   lazy chain collapse: forwarded invokes carry their hop trail and the
   node that finally hosts the target rewrites every traversed proxy.
   [Loc_directory] adds the hash-partitioned location directory on top:
   migrations publish their destination to the object's home shard, and
   an exhausted proxy chain asks the home shard before falling back to
   the broadcast search. *)
type location =
  | Loc_off
  | Loc_collapse
  | Loc_directory

(* Which collector tier automatic collection uses (DESIGN.md §17).
   [Gc_stw] is the seed behaviour — one stop-the-world mark-sweep per
   threshold crossing, byte-identical traces.  [Gc_incremental] runs the
   same collection as a tri-color cycle of bounded increments
   interleaved with the event loop, charged per increment. *)
type gc_mode =
  | Gc_stw
  | Gc_incremental

exception Heterogeneous_move_in_original_protocol

type node = {
  mutable n_kernel : K.t;  (* replaced wholesale on restart after a crash *)
  n_clock : Sim.Clock.t;  (* == K.clock n_kernel, cached for the hot loop *)
  n_conv : CS.t;
  mutable n_crashed : bool;
}

(* an in-flight Emerald location search, owned by the asking node *)
type search = {
  s_asker : int;
  mutable s_pending : Mobility.Marshal.message list;
  mutable s_awaiting : int;  (* probe answers still outstanding *)
}

(* ----------------------------------------------------------------------- *)
(* the reliable transport (installed only for a non-trivial fault plan)

   With an injector on the wire, frames can be dropped, duplicated or
   delayed, so protocol messages travel in an envelope: a 1-byte tag and
   a 4-byte big-endian per-sender sequence number in front of the
   marshalled payload.  Every data frame is acknowledged (header-only
   ack frame, re-acked on duplicates); the sender retransmits unacked
   messages on engine-scheduled timeouts with bounded exponential
   backoff, and the receiver suppresses (src, seq) pairs it has already
   delivered — exactly-once delivery, or a reported loss after the
   retry budget is spent.  The header is framing, not data: it is
   charged no conversion work, matching the Ethernet/IP framing bytes
   Netsim already accounts.

   Without a fault plan none of this exists: messages travel bare, no
   acks are sent, and the event sequence is bit-identical to a build
   without the fault subsystem. *)

type pending_send = {
  p_seq : int;
  p_dst : int;
  p_frame : string;  (* the enveloped wire frame, cached for retransmission *)
  p_msg : Mobility.Marshal.message;  (* for loss reporting on give-up *)
  p_span : (int * int * float) option;  (* move-span tag, kept across retries *)
  mutable p_attempts : int;  (* transmissions so far *)
  mutable p_next_at : float;  (* retransmission deadline *)
}

let tr_rto_us = 2_000.0 (* initial retransmission timeout *)
let tr_rto_max_us = 32_000.0 (* backoff cap *)
let tr_max_attempts = 8 (* transmissions before the loss is reported *)

let put_seq b off seq =
  Bytes.set b off (Char.chr ((seq lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((seq lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((seq lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (seq land 0xff))

let get_seq v off =
  (Char.code (Enet.Wire.view_get v off) lsl 24)
  lor (Char.code (Enet.Wire.view_get v (off + 1)) lsl 16)
  lor (Char.code (Enet.Wire.view_get v (off + 2)) lsl 8)
  lor Char.code (Enet.Wire.view_get v (off + 3))

let data_frame ~seq payload =
  let b = Bytes.create (5 + String.length payload) in
  Bytes.set b 0 '\001';
  put_seq b 1 seq;
  Bytes.blit_string payload 0 b 5 (String.length payload);
  Bytes.unsafe_to_string b

let ack_frame seq =
  let b = Bytes.create 5 in
  Bytes.set b 0 '\002';
  put_seq b 1 seq;
  Bytes.unsafe_to_string b

type frame =
  | Frame_data of int * Enet.Wire.view
  | Frame_ack of int

let unwrap_frame v =
  match Enet.Wire.view_get v 0 with
  | '\001' ->
    Frame_data (get_seq v 1, Enet.Wire.sub_view v ~pos:5 ~len:(Enet.Wire.view_length v - 5))
  | '\002' -> Frame_ack (get_seq v 1)
  | _ -> invalid_arg "Cluster: corrupt transport frame"

type chaos_act =
  | Chaos_crash
  | Chaos_restart

(* ----------------------------------------------------------------------- *)
(* sharded execution (DESIGN.md §11)

   The node range is split into contiguous shards (Shard.plan), each
   with its own engine heap.  Two execution regimes share the shard
   structure:

   - *Sequential merge* ([step_once]): repeatedly pop the globally
     earliest event across the per-shard engines, comparing heads by
     (time, rank).  The engine rank is node-major, so this reproduces
     the single-heap order exactly — [--shards 1] degenerates to the
     one-engine loop bit-for-bit, and any shard count executes the
     identical event sequence.  All semantics (fault plans, reliable
     transport, invariant probing) run in this regime.

   - *Parallel windows* ([run] only, when [parallel_ok]): shards
     execute concurrently inside a conservative Chandy–Misra window
     [W, W + lookahead) where the lookahead is the network latency —
     the minimum delay any cross-node interaction can have.  Inside a
     window a shard touches only its own nodes' state; sends are
     posted to a per-shard Netsim outbox and flushed at the barrier in
     canonical (time, rank, seq) order, reproducing bit-identically
     the medium reservation, sequence numbers and arrival times of a
     sequential run (every arrival lands at or past the horizon, so
     deferral is unobservable in-window).  Bus events are buffered
     per shard with their generating event's key and replayed merged
     at the barrier; with no subscribers the buffer
     is skipped and counters (per node, shard-owned) are updated
     directly.  The rare in-window thread abort (a failed location
     search) is deferred to the barrier too; its thread's segments
     are all parked awaiting a reply that will never come, so the
     deferral is unobservable. *)

type dsend = {
  ds_entry : Enet.Netsim.Outbox.entry;
  ds_time : float;  (* sender's virtual clock at the send *)
  ds_src : int;
  ds_dst : int;
  ds_desc : string;
  ds_bytes : int;
  (* transfer-span identity (own id, root move-span id, arch pair) when
     span tracing is on and the send carries a move; the barrier emits
     the span once the flush has computed the arrival time *)
  ds_span : (Obs.Span.id * Obs.Span.id * string) option;
}

type buffered =
  | B_ev of E.t
  | B_send of dsend  (* Ev_msg_send whose arrival the barrier fills in *)

type shard = {
  sh_id : int;
  sh_engine : Engine.t;
  sh_searches : (Ert.Oid.t, search) Hashtbl.t;  (* keyed by asker's shard *)
  sh_root_done : (T.tid, Ert.Value.t option) Hashtbl.t;
  mutable sh_events : int;  (* events executed in parallel windows *)
  mutable sh_collections : int;
  (* window-transient state, reset at each barrier *)
  sh_outbox : Enet.Netsim.Outbox.t;
  mutable sh_buf : (float * int * int * buffered) list;
  mutable sh_aborts : (float * int * int * int * T.tid * string) list;
      (* key, context node, thread, reason *)
  mutable sh_seq : int;  (* per-window emission/posting counter *)
  mutable sh_key_time : float;  (* generating event's key, set per pop *)
  mutable sh_key_rank : int;
  mutable sh_win_busy_ns : float;  (* host time in the current window *)
}

type t = {
  nodes : node array;
  net : Enet.Netsim.t;
  repo : Mobility.Code_repository.t;
  proto : protocol;
  wire_impl : Enet.Wire.impl;
  sched : scheduler;
  splan : Shard.plan;
  owner : int array;  (* node -> shard, cached from [splan] *)
  engines : Engine.t array;  (* one per shard *)
  shards : shard array;
  lookahead : float;  (* window width = min network latency *)
  mutable win_active : bool;  (* inside a parallel window *)
  mutable win_buffering : bool;  (* window events buffered for replay *)
  bus : E.bus;
  mutable events : int;
  failures : (T.tid, string) Hashtbl.t;  (* threads lost to node crashes *)
  gc_threshold : int option;  (* collect a node when its heap exceeds this *)
  gc_threshold_i : int;  (* same, resolved to max_int when absent (hot-loop form) *)
  gc_mode : gc_mode;
  gc_budget : int;  (* pointer slots per incremental increment *)
  gcs : Ert.Gc.cycle option array;
      (* per-node in-progress incremental mark cycle.  Soft state, like
         the location directory: a crash discards it (Gc.abort) and the
         next threshold crossing starts a fresh cycle from scratch. *)
  mutable pinned : Ert.Oid.t list;  (* harness-held references: GC roots *)
  mutable collections : int;
  (* --- fault injection; [reliable] = a non-trivial plan is installed --- *)
  faults : Fault.Plan.t;
  reliable : bool;
  frng : Fault.Rng.t;  (* the plan's wire-fault stream *)
  next_seq : int array;  (* per-node transport sequence numbers *)
  outstanding : (int, pending_send) Hashtbl.t array;  (* unacked, per sender *)
  seen : (int * int, unit) Hashtbl.t array;  (* (src, seq) delivered, per receiver *)
  chaos : (float * chaos_act) list array;  (* per-node schedule, sorted by time *)
  quantum : int option;  (* kept to configure replacement kernels on restart *)
  opt_levels : Emc.Opt.level array;
      (* per-node code-instance selection, kept (like [quantum]) to
         configure replacement kernels on restart; mutated only by
         [set_opt_level], which the kernel refuses once code is loaded *)
  async_migration : bool;
      (* overlap migration capture with execution-to-the-stop: refund the
         smaller of the quiesce and capture costs against the source
         clock (DESIGN.md §13); off by default, preserving byte-identical
         timing with earlier versions *)
  (* --- periodic load balancing at fixed virtual times; fires between
     events (sequentially) or between windows (sharded), so the schedule
     is independent of the shard count --- *)
  mutable balancer : (unit -> unit) option;
  mutable balance_every : float;
  mutable balance_at : float;
  mutable last_prog : Emc.Compile.program option;
  inv_last_times : float array;  (* monotonicity state for check_invariants *)
  (* --- span tracing (DESIGN.md §12); all off and alloc-free until
     [enable_spans]/[attach_profile] flips [spans_on] --- *)
  mutable spans_on : bool;
  span_seq : int array;  (* per-node span id allocator (shard-owned) *)
  move_t0 : float array;  (* per-node start time of the move being captured *)
  rpc_open : (T.tid * int, string * float) Hashtbl.t array;
      (* per caller node: (thread, caller seg) -> (arch pair, t0) of the
         round trip in flight; opened at the original M_invoke send,
         closed when the M_reply is delivered back at the caller *)
  (* --- the location subsystem (DESIGN.md §14); all state is inert when
     [location = Loc_off] --- *)
  location : location;
  partition : Loc.Partition.t;  (* OID -> home-shard map (stateless) *)
  dirs : Loc.Directory.t array;
      (* node i's directory shard: entries for OIDs whose home is i.
         Mutated only while executing node i's events (or host-side
         between events), so parallel windows touch disjoint shards. *)
  dir_waits : (Ert.Oid.t, Mobility.Marshal.message list) Hashtbl.t array;
      (* per asker node: messages parked awaiting that node's in-flight
         M_dir_lookup, newest first *)
}

let n_shards t = Array.length t.shards
let shard_of t i = t.owner.(i)
let eng t i = t.engines.(t.owner.(i))

(* Emit an event attributed to [node].  Inside a parallel window the
   event is buffered with the generating event's merge key (or, with
   nobody listening, counted directly — the node's counters are owned
   by the executing shard); otherwise it goes straight to the bus. *)
let emit t ~node ev =
  if t.win_active && t.win_buffering then begin
    let sh = t.shards.(t.owner.(node)) in
    sh.sh_seq <- sh.sh_seq + 1;
    sh.sh_buf <- (sh.sh_key_time, sh.sh_key_rank, sh.sh_seq, B_ev ev) :: sh.sh_buf
  end
  else E.emit t.bus ev

(* Does an emitted event reach anyone beyond the counters?  Message
   events carry [Marshal.describe]'s text, a sprintf per message, so —
   like [E.emit_step] — they are built only when this holds; otherwise
   the sender bumps the counter alone ([E.count_msg]). *)
let listening t =
  if t.win_active then t.win_buffering
  else E.has_subscribers t.bus

(* --- span tracing helpers (DESIGN.md §12) ---

   Spans measure virtual-time intervals of the migration pipeline; they
   read clocks, never charge them, so enabling tracing cannot perturb
   simulated times.  Span ids are (node, per-node counter) pairs: the
   counter is bumped only while executing events of the owning node,
   which lives in exactly one shard, so allocation is race-free and the
   id stream is independent of the shard count. *)

let alloc_span_id t node =
  let s = t.span_seq.(node) + 1 in
  t.span_seq.(node) <- s;
  { Obs.Span.id_node = node; id_seq = s }

let arch_pair t ~src ~dst =
  (K.arch t.nodes.(src).n_kernel).Isa.Arch.id
  ^ "->"
  ^ (K.arch t.nodes.(dst).n_kernel).Isa.Arch.id

(* allocate an id and publish a closed span on the bus, attributed to
   [node] (so window replay merges it at its canonical position) *)
let emit_span t ~node ?parent ?(bytes = 0) ~pair ~name ~t0 ~t1 () =
  let id = alloc_span_id t node in
  emit t ~node
    (E.Ev_span
       { Obs.Span.name; node; arch_pair = pair; t_start_us = t0; t_end_us = t1;
         id; parent; bytes })

let enable_spans t = t.spans_on <- true

let attach_profile t p =
  enable_spans t;
  E.subscribe t.bus (function
    | E.Ev_span s -> Obs.Profile.add p s
    | _ -> ())

(* (re)queue a scheduling slice for the node, at its current virtual
   time; the engine dedups, so this is cheap to call after anything
   that might have woken a segment *)
let ensure_step t i =
  if t.sched = Heap then begin
    let n = t.nodes.(i) in
    if (not n.n_crashed) && K.has_ready n.n_kernel then
      Engine.schedule (eng t i) ~at:(K.time_us n.n_kernel) (Engine.Step i)
  end

(* (re)queue a wake at the node's earliest timed-wait deadline; the
   engine dedups, and the pop handler revalidates against the kernel, so
   a stale or superseded entry costs one no-op pop.  Timed waits are a
   Heap-scheduler feature, like fault plans. *)
let ensure_wake t i =
  if t.sched = Heap then begin
    let n = t.nodes.(i) in
    if not n.n_crashed then
      match K.next_timeout n.n_kernel with
      | Some d -> Engine.schedule (eng t i) ~at:d (Engine.Wake i)
      | None -> ()
  end

let create ?net_config ?(protocol = Enhanced) ?(wire_impl = Enet.Wire.Naive)
    ?(scheduler = Heap) ?(shards = 1) ?quantum ?(opt_level = Emc.Opt.O0)
    ?gc_threshold ?(gc_mode = Gc_stw) ?(gc_budget = 4096)
    ?(faults = Fault.Plan.empty) ?(async_migration = false)
    ?(location = Loc_off) ~archs () =
  let n = List.length archs in
  let reliable = not (Fault.Plan.is_trivial faults) in
  if reliable && scheduler <> Heap then
    invalid_arg "Cluster.create: fault plans require the Heap scheduler";
  if gc_mode = Gc_incremental && scheduler <> Heap then
    invalid_arg "Cluster.create: incremental GC requires the Heap scheduler";
  if gc_budget < 1 then invalid_arg "Cluster.create: gc_budget must be positive";
  if shards < 1 then invalid_arg "Cluster.create: need at least one shard";
  if shards > 1 && scheduler <> Heap then
    invalid_arg "Cluster.create: sharding requires the Heap scheduler";
  let net = Enet.Netsim.create ?config:net_config ~n_nodes:n () in
  let repo = Mobility.Code_repository.create ~n_nodes:n () in
  let nodes =
    Array.of_list
      (List.mapi
         (fun i arch ->
           let k = K.create ~node_id:i ~arch () in
           K.set_on_code_load k (fun ~class_index ->
               Mobility.Code_repository.record_fetch repo ~node:i ~class_index;
               K.charge_insns k CM.code_fetch_insns);
           K.set_quantum k quantum;
           K.set_dispatch_cache k
             (Mobility.Code_repository.dispatch_cache repo ~node:i);
           K.set_bridge_cache k
             (Mobility.Code_repository.bridge_cache repo ~node:i);
           K.set_opt_level k opt_level;
           { n_kernel = k; n_clock = K.clock k; n_conv = CS.create ();
             n_crashed = false })
         archs)
  in
  let splan = Shard.plan ~n_nodes:n ~shards in
  let d = Shard.n_shards splan in
  let mk_shard s =
    {
      sh_id = s;
      sh_engine = Engine.create ~n_nodes:n ();
      sh_searches = Hashtbl.create 4;
      sh_root_done = Hashtbl.create 4;
      sh_events = 0;
      sh_collections = 0;
      sh_outbox = Enet.Netsim.Outbox.create ();
      sh_buf = [];
      sh_aborts = [];
      sh_seq = 0;
      sh_key_time = 0.0;
      sh_key_rank = 0;
      sh_win_busy_ns = 0.0;
    }
  in
  let shard_ctxs = Array.init d mk_shard in
  let t =
    { nodes; net; repo; proto = protocol; wire_impl; sched = scheduler;
      splan; owner = Array.init n (Shard.owner splan);
      engines = Array.map (fun sh -> sh.sh_engine) shard_ctxs;
      shards = shard_ctxs;
      lookahead =
        (Enet.Netsim.config net).Enet.Netsim.latency_us;
      win_active = false; win_buffering = false;
      bus = E.create_bus ~n_nodes:n;
      events = 0;
      failures = Hashtbl.create 4;
      gc_threshold = gc_threshold;
      gc_threshold_i = (match gc_threshold with Some v -> v | None -> max_int);
      gc_mode; gc_budget;
      gcs = Array.make n None;
      pinned = []; collections = 0;
      faults; reliable;
      frng = Fault.Rng.create ~seed:faults.Fault.Plan.pl_seed;
      next_seq = Array.make n 0;
      outstanding = Array.init n (fun _ -> Hashtbl.create 8);
      seen = Array.init n (fun _ -> Hashtbl.create 64);
      chaos = Array.make n [];
      quantum;
      opt_levels = Array.make n opt_level;
      async_migration;
      balancer = None; balance_every = infinity; balance_at = infinity;
      last_prog = None;
      inv_last_times = Array.make n 0.0;
      spans_on = false;
      span_seq = Array.make n 0;
      move_t0 = Array.make n Float.nan;
      rpc_open = Array.init n (fun _ -> Hashtbl.create 8);
      location;
      partition = Loc.Partition.create ~n_nodes:n;
      dirs = Array.init n (fun _ -> Loc.Directory.create ());
      dir_waits = Array.init n (fun _ -> Hashtbl.create 4) }
  in
  E.attach_shards t.bus d;
  Array.iteri
    (fun i node ->
      let done_tbl = t.shards.(t.owner.(i)).sh_root_done in
      K.set_on_root_result node.n_kernel (fun ~thread r ->
          Hashtbl.replace done_tbl thread r))
    t.nodes;
  if scheduler = Heap then
    Enet.Netsim.set_on_arrival net (fun ~dst ~at ->
        Engine.schedule (eng t dst) ~at (Engine.Deliver dst));
  if reliable then begin
    Enet.Netsim.set_injector net (fun ~src ~dst ~now_us ->
        Fault.Plan.wire_fault faults ~rng:t.frng ~src ~dst ~now_us);
    Enet.Netsim.set_on_fault net (fun ~src ~dst f ->
        let kind =
          match f with
          | Enet.Netsim.Fault_drop -> "drop"
          | Enet.Netsim.Fault_dup extra -> Printf.sprintf "dup (+%.0fus)" extra
          | Enet.Netsim.Fault_delay extra -> Printf.sprintf "delay (+%.0fus)" extra
        in
        emit t ~node:src
          (E.Ev_fault
             { time = K.time_us t.nodes.(src).n_kernel; src; dst; kind }));
    (* compile the plan's crash/restart windows into per-node schedules
       and seed the engine with each node's first window *)
    List.iter
      (fun (c : Fault.Plan.chaos) ->
        let i = c.Fault.Plan.ch_node in
        if i < 0 || i >= n then
          invalid_arg "Cluster.create: fault plan crashes a node out of range";
        let acts =
          (c.Fault.Plan.ch_crash_at_us, Chaos_crash)
          :: (match c.Fault.Plan.ch_restart_at_us with
             | Some r -> [ (r, Chaos_restart) ]
             | None -> [])
        in
        t.chaos.(i) <-
          List.sort (fun (a, _) (b, _) -> Float.compare a b) (t.chaos.(i) @ acts))
      faults.Fault.Plan.pl_chaos;
    Array.iteri
      (fun i acts ->
        match acts with
        | (at, _) :: _ -> Engine.schedule (eng t i) ~at (Engine.Chaos i)
        | [] -> ())
      t.chaos
  end;
  t

let protocol t = t.proto
let scheduler t = t.sched
let gc_mode t = t.gc_mode
let gc_in_progress t i = t.gcs.(i) <> None
let location t = t.location
let directory_home t oid = Loc.Partition.home t.partition oid

(* host-side directory inspection (no hit/miss accounting) *)
let directory_entry t oid =
  match Loc.Directory.peek t.dirs.(directory_home t oid) oid with
  | Some e -> Some e.Loc.Directory.le_node
  | None -> None

(* summed over all shards: (updates, stale drops, hits, misses) *)
let directory_stats t =
  Array.fold_left
    (fun (u, s, h, m) d ->
      ( u + Loc.Directory.updates d,
        s + Loc.Directory.stale_dropped d,
        h + Loc.Directory.hits d,
        m + Loc.Directory.misses d ))
    (0, 0, 0, 0) t.dirs
let n_nodes t = Array.length t.nodes
let kernel t i = t.nodes.(i).n_kernel
let kernels t = Array.map (fun n -> n.n_kernel) t.nodes
let arch_of t i = K.arch (kernel t i)
let repository t = t.repo
let network t = t.net
let engine t = t.engines.(0)
let engines t = t.engines
let conversion_stats t i = t.nodes.(i).n_conv
let fault_plan t = t.faults
let set_trace t f = E.subscribe t.bus (fun ev -> Option.iter f (E.legacy_string ev))
let bus t = t.bus
let subscribe_events t f = E.subscribe t.bus f
let node_counters t i = E.counters t.bus i
let total_counter t f = E.total t.bus f

let load_program t prog =
  t.last_prog <- Some prog;  (* replayed into replacement kernels on restart *)
  Mobility.Code_repository.set_program t.repo prog;
  Array.iter (fun n -> K.load_program n.n_kernel prog) t.nodes

let compile_and_load ?optimize ?levels t ~name source =
  let archs =
    List.sort_uniq
      (fun a b -> String.compare a.Isa.Arch.id b.Isa.Arch.id)
      (Array.to_list (Array.map (fun n -> K.arch n.n_kernel) t.nodes))
  in
  (* with no explicit instance list, compile whatever the nodes are
     configured to run: the [?optimize] level first (the primary, so
     byte-for-byte compatible with the old single-instance path), then
     any other per-node levels.  When every node wants the primary this
     collapses to exactly the old call. *)
  let levels =
    match levels with
    | Some _ -> levels
    | None ->
      let primary = Emc.Opt.of_optimize (optimize = Some true) in
      if Array.for_all (Emc.Opt.equal primary) t.opt_levels then None
      else Some (primary :: Array.to_list t.opt_levels)
  in
  let prog = Emc.Compile.compile_exn ?optimize ?levels ~name ~archs source in
  load_program t prog;
  prog

let set_opt_level t ~node level =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Cluster.set_opt_level: node id out of range";
  K.set_opt_level t.nodes.(node).n_kernel level;  (* refuses if code is loaded *)
  t.opt_levels.(node) <- level

let opt_level_of t node = K.opt_level t.nodes.(node).n_kernel
let bridge_stats t = Mobility.Code_repository.bridge_stats t.repo

let create_object t ~node ~class_name =
  let k = kernel t node in
  let prog = K.program k in
  match Emc.Compile.find_class prog class_name with
  | None -> invalid_arg (Printf.sprintf "Cluster.create_object: no class %s" class_name)
  | Some cc ->
    let addr = K.create_object k ~class_index:cc.Emc.Compile.cc_index in
    ignore (K.start_process_if_any k ~target_addr:addr);
    let oid = K.oid_at k addr in
    (* harness-held references pin their objects against automatic GC *)
    t.pinned <- oid :: t.pinned;
    (* a silent host-side birth registration: no traffic and no events,
       so the directory-off byte stream is untouched and a fresh cluster
       starts with an authoritative location map *)
    (if t.location = Loc_directory then
       let home = Loc.Partition.home t.partition oid in
       ignore (Loc.Directory.update t.dirs.(home) oid ~node ~at:(K.time_us k) : bool));
    ensure_step t node;
    oid

let where_is t oid =
  let found = ref None in
  Array.iteri
    (fun i n ->
      if !found = None && (not n.n_crashed) && K.find_object n.n_kernel oid <> None then
        found := Some i)
    t.nodes;
  !found

let spawn t ~node ~target ~op ~args =
  let k = kernel t node in
  match K.find_object k target with
  | None ->
    invalid_arg
      (Printf.sprintf "Cluster.spawn: %s is not resident on node %d"
         (Ert.Oid.to_string target) node)
  | Some addr ->
    let tid = K.spawn_root k ~target_addr:addr ~method_name:op ~args in
    ensure_step t node;
    tid

(* ----------------------------------------------------------------------- *)
(* node crashes (failure injection) *)

exception Thread_unavailable of string

let is_crashed t i = t.nodes.(i).n_crashed
let thread_failure t tid = Hashtbl.find_opt t.failures tid

(* retire every segment of a lost thread on every live node *)
let reap_thread t tid =
  Array.iter
    (fun n ->
      if not n.n_crashed then
        List.iter
          (fun (seg : T.segment) ->
            if seg.T.seg_thread = tid then K.retire_segment n.n_kernel seg)
          (K.segments n.n_kernel))
    t.nodes

(* Abort every live segment of a thread: its continuation is gone.
   [node] is the context node the abort originates at (for shard
   attribution).  Inside a parallel window the abort is deferred to the
   barrier: the only in-window abort source is a failed location
   search, whose thread's segments are all parked awaiting a reply that
   will never come, so postponing the kill past the window edge is
   unobservable — but the trace line must appear at its canonical
   position, so Ev_thread_lost is buffered now, with the generating
   event's key. *)
let abort_thread t ~node tid ~reason =
  if t.win_active then begin
    let sh = t.shards.(t.owner.(node)) in
    (* [t.failures] is written only at barriers, so reading it from a
       worker domain mid-window is race-free *)
    let fresh =
      (not (Hashtbl.mem t.failures tid))
      && not (List.exists (fun (_, _, _, _, tid', _) -> tid' = tid) sh.sh_aborts)
    in
    if fresh then begin
      sh.sh_seq <- sh.sh_seq + 1;
      sh.sh_aborts <-
        (sh.sh_key_time, sh.sh_key_rank, sh.sh_seq, node, tid, reason)
        :: sh.sh_aborts;
      emit t ~node (E.Ev_thread_lost { thread = tid; reason })
    end
  end
  else if not (Hashtbl.mem t.failures tid) then begin
    Hashtbl.replace t.failures tid reason;
    emit t ~node (E.Ev_thread_lost { thread = tid; reason });
    reap_thread t tid
  end

(* the window-deferred half of [abort_thread]: record the failure and
   reap the segments, without re-emitting the (already buffered) event *)
let apply_deferred_abort t tid ~reason =
  if not (Hashtbl.mem t.failures tid) then begin
    Hashtbl.replace t.failures tid reason;
    reap_thread t tid
  end

(* the search table is per shard, keyed by the asking node's shard, so
   that parallel windows mutate disjoint tables *)
let search_tbl t ~asker = t.shards.(t.owner.(asker)).sh_searches

(* find a search whose asker is unknown (sequential contexts only) *)
let find_search_any t obj =
  let rec go s =
    if s >= Array.length t.shards then None
    else
      match Hashtbl.find_opt t.shards.(s).sh_searches obj with
      | Some search -> Some (t.shards.(s).sh_searches, search)
      | None -> go (s + 1)
  in
  go 0

(* a message could not be delivered: the sending thread's continuation is
   lost with it.  [node] is the context node the drop happens at.  The
   whole delivery/search/transport machinery below is one recursive
   group: a drop can complete a search negatively, a directory fallback
   starts a search, and a search sends probes. *)
let rec drop_message t ~node (msg : Mobility.Marshal.message) ~reason =
  match msg with
  | Mobility.Marshal.M_invoke { thread; _ } -> abort_thread t ~node thread ~reason
  | Mobility.Marshal.M_invoke_via { inv; _ } -> drop_message t ~node inv ~reason
  | Mobility.Marshal.M_reply { thread; _ } -> abort_thread t ~node thread ~reason
  | Mobility.Marshal.M_move payload | Mobility.Marshal.M_group_move payload ->
    List.iter
      (fun (s : Mobility.Mi_frame.mi_segment) ->
        abort_thread t ~node s.Mobility.Mi_frame.ms_thread ~reason)
      payload.Mobility.Marshal.mp_segments
  | Mobility.Marshal.M_locate { obj } -> (
    (* an unanswerable probe counts as a negative answer; the probe does
       not name its asker, so find the search across shards (this path
       never runs inside a parallel window — it needs a dead node or a
       spent retry budget) *)
    match find_search_any t obj with
    | None -> ()
    | Some (tbl, s) -> search_negative t tbl obj s)
  | Mobility.Marshal.M_dir_lookup { obj } | Mobility.Marshal.M_dir_reply { obj; _ }
    ->
    (* a lookup (or its answer) died on the wire: release every parked
       message waiting on it into the broadcast search.  Like the
       M_locate case, this needs a dead node or a spent retry budget,
       so it never runs inside a parallel window. *)
    dir_fallback t obj
  | Mobility.Marshal.M_move_req _ | Mobility.Marshal.M_located _
  | Mobility.Marshal.M_start_process _ | Mobility.Marshal.M_dir_update _
  | Mobility.Marshal.M_loc_hint _ ->
    (* no thread continuation rides on these; the protocol degrades to a
       search, a stale directory entry, or a no-op *)
    ()

and search_negative t tbl obj (s : search) =
  s.s_awaiting <- s.s_awaiting - 1;
  if s.s_awaiting <= 0 then begin
    Hashtbl.remove tbl obj;
    emit t ~node:s.s_asker (E.Ev_search_failed { obj });
    List.iter
      (fun msg ->
        drop_message t ~node:s.s_asker msg
          ~reason:
            (Printf.sprintf "object %s cannot be located" (Ert.Oid.to_string obj)))
      s.s_pending
  end

(* every node whose directory wait on [obj] can no longer be answered
   falls back to the broadcast search with its parked messages *)
and dir_fallback t obj =
  Array.iteri
    (fun asker waits ->
      match Hashtbl.find_opt waits obj with
      | None -> ()
      | Some pending ->
        Hashtbl.remove waits obj;
        List.iter (fun msg -> start_search t ~asker obj msg) (List.rev pending))
    t.dir_waits

and crash_node t i =
  let victim = t.nodes.(i) in
  if not victim.n_crashed then begin
    emit t ~node:i (E.Ev_crash { node = i });
    (* an in-progress incremental mark cycle is soft state: discard it
       with the incarnation (the directory rule); a post-restart
       threshold crossing starts a fresh cycle from scratch *)
    (match t.gcs.(i) with
    | Some cy ->
      Ert.Gc.abort cy victim.n_kernel;
      t.gcs.(i) <- None
    | None -> ());
    (* a thread whose ACTIVE segment (ready, running or blocked on a local
       monitor) dies with the node can never make progress: abort its
       remnants now.  A thread that merely had a dormant awaiting segment
       here keeps computing wherever its top segment lives — co-location
       pays off — and is aborted only when its return is eventually
       dropped at this dead node. *)
    let lost_threads =
      List.filter_map
        (fun (s : T.segment) ->
          match s.T.seg_status with
          | T.Parked _ | T.Running | T.Blocked_monitor _ -> Some s.T.seg_thread
          | T.Awaiting_reply _ | T.Dead -> None)
        (K.segments victim.n_kernel)
      |> List.sort_uniq compare
    in
    victim.n_crashed <- true;
    List.iter
      (fun tid ->
        abort_thread t ~node:i tid ~reason:(Printf.sprintf "node %d crashed" i))
      lost_threads;
    (* searches owned by the dead node die with it; their pending
       invocations can never be routed *)
    let tbl = search_tbl t ~asker:i in
    let orphaned =
      Hashtbl.fold
        (fun obj s acc -> if s.s_asker = i then (obj, s) :: acc else acc)
        tbl []
    in
    List.iter
      (fun (obj, s) ->
        Hashtbl.remove tbl obj;
        List.iter
          (fun msg ->
            drop_message t ~node:i msg
              ~reason:(Printf.sprintf "node %d crashed" i))
          s.s_pending)
      orphaned;
    (* the dead node's transport state is gone: every message it had not
       yet seen acknowledged may or may not have been delivered — the
       fail-stop uncertainty — so their continuations are reported lost *)
    if t.reliable && Hashtbl.length t.outstanding.(i) > 0 then begin
      let entries =
        Hashtbl.fold (fun _ p acc -> p :: acc) t.outstanding.(i) []
        |> List.sort (fun a b -> compare a.p_seq b.p_seq)
      in
      Hashtbl.reset t.outstanding.(i);
      List.iter
        (fun p ->
          drop_message t ~node:i p.p_msg
            ~reason:(Printf.sprintf "node %d crashed" i))
        entries
    end;
    (* the node's directory shard dies with it (restart rebuilds it from
       the surviving residents), and its in-flight lookups can no longer
       be answered: release their parked messages to the search *)
    if t.location = Loc_directory then begin
      Loc.Directory.clear t.dirs.(i);
      let waits =
        Hashtbl.fold (fun obj msgs acc -> (obj, msgs) :: acc) t.dir_waits.(i) []
        |> List.sort (fun (a, _) (b, _) ->
               compare (Ert.Oid.intern a) (Ert.Oid.intern b))
      in
      Hashtbl.reset t.dir_waits.(i);
      List.iter
        (fun (_, msgs) ->
          List.iter
            (fun msg ->
              drop_message t ~node:i msg
                ~reason:(Printf.sprintf "node %d crashed" i))
            (List.rev msgs))
        waits
    end
  end

(* Reboot a crashed node: a fresh, amnesiac kernel — no objects, no
   segments, no transport state — on the same (shared, monotonic) clock,
   with the program reloaded so arriving invocations can at least build
   proxies and forward.  Everything the node held before the crash stays
   lost; that is the fail-stop model. *)
and restart_node t i =
  let n = t.nodes.(i) in
  if n.n_crashed then begin
    let arch = K.arch n.n_kernel in
    let k = K.create ~clock:n.n_clock ~node_id:i ~arch () in
    (* serial counters come from stable storage: a rebooted node must not
       re-mint an OID its previous incarnation issued, because copies of
       those objects may have migrated away and survived the crash *)
    K.inherit_serials k (K.serials n.n_kernel);
    K.set_on_code_load k (fun ~class_index ->
        Mobility.Code_repository.record_fetch t.repo ~node:i ~class_index;
        K.charge_insns k CM.code_fetch_insns);
    K.set_quantum k t.quantum;
    K.set_dispatch_cache k (Mobility.Code_repository.dispatch_cache t.repo ~node:i);
    (* bridge fragments address the dead kernel's text, so they are
       cleared with the incarnation; the cache object (and its hit/miss
       history) lives in the repository and survives, like the plans *)
    let bridge = Mobility.Code_repository.bridge_cache t.repo ~node:i in
    Ert.Bridge.clear bridge;
    K.set_bridge_cache k bridge;
    K.set_opt_level k t.opt_levels.(i);
    let done_tbl = t.shards.(t.owner.(i)).sh_root_done in
    K.set_on_root_result k (fun ~thread r -> Hashtbl.replace done_tbl thread r);
    (match t.last_prog with Some prog -> K.load_program k prog | None -> ());
    n.n_kernel <- k;
    n.n_crashed <- false;
    if t.reliable then Hashtbl.reset t.seen.(i);
    (* rebuild the node's directory shard from the forwarding ground
       truth: every surviving resident whose home partition is this node
       is re-registered at its current host, stamped now — so an update
       that was in flight across the crash arrives stale and is dropped *)
    if t.location = Loc_directory then begin
      let d = t.dirs.(i) in
      Loc.Directory.clear d;
      let now = K.time_us k in
      Array.iteri
        (fun j n' ->
          if not n'.n_crashed then
            K.iter_objects n'.n_kernel (fun oid _ ->
                if Loc.Partition.home t.partition oid = i then
                  ignore (Loc.Directory.update d oid ~node:j ~at:now : bool)))
        t.nodes
    end;
    emit t ~node:i (E.Ev_restart { node = i })
  end

(* ----------------------------------------------------------------------- *)
(* message transmission with conversion accounting *)

and payload_shape (msg : Mobility.Marshal.message) =
  match msg with
  | Mobility.Marshal.M_move p | Mobility.Marshal.M_group_move p ->
    let frames =
      List.fold_left
        (fun acc s -> acc + Mobility.Mi_frame.frame_count s)
        0 p.Mobility.Marshal.mp_segments
    in
    (List.length p.Mobility.Marshal.mp_objects, frames)
  | Mobility.Marshal.M_invoke _ | Mobility.Marshal.M_invoke_via _
  | Mobility.Marshal.M_reply _ | Mobility.Marshal.M_move_req _
  | Mobility.Marshal.M_locate _ | Mobility.Marshal.M_located _
  | Mobility.Marshal.M_start_process _ | Mobility.Marshal.M_dir_update _
  | Mobility.Marshal.M_dir_lookup _ | Mobility.Marshal.M_dir_reply _
  | Mobility.Marshal.M_loc_hint _ -> (0, 0)

and check_protocol t ~src ~dst (msg : Mobility.Marshal.message) =
  match t.proto, msg with
  | Original, (Mobility.Marshal.M_move _ | Mobility.Marshal.M_group_move _)
    when not
           (Isa.Arch.equal_family (arch_of t src).Isa.Arch.family
              (arch_of t dst).Isa.Arch.family) ->
    (* the homogeneous system has no machine-independent format to go
       through: it works only between machines running the same object
       code (the two HP9000/300s of the paper qualify) *)
    raise Heterogeneous_move_in_original_protocol
  | (Original | Enhanced), _ -> ()

(* charge the conversion (or raw copy) work performed while encoding or
   decoding [bytes] of network data *)
and charge_conversion t ~node ~calls ~bytes =
  let k = t.nodes.(node).n_kernel in
  (match t.proto with
  | Enhanced -> K.charge_insns k (calls * CM.per_conversion_call_insns)
  | Original -> K.charge_insns k (bytes * CM.original_copy_insns_per_byte));
  if calls > 0 || bytes > 0 then emit t ~node (E.Ev_conversion { node; calls; bytes })

and charge_translation t ~node (msg : Mobility.Marshal.message) =
  match t.proto with
  | Original -> ()
  | Enhanced ->
    let objects, frames = payload_shape msg in
    let k = t.nodes.(node).n_kernel in
    K.charge_insns k
      ((objects * CM.object_translate_insns) + (frames * CM.frame_translate_insns))

(* the original protocol converts per datum: the plan tier with no plan
   cache *)
and wire_impl_of t =
  match t.proto with
  | Enhanced -> t.wire_impl
  | Original -> Enet.Wire.Plan

(* under the Plan tier, thread the memoized conversion-plan cache and the
   (src, dst) arch pair through encode/decode; other tiers interpret.
   The Blit tier negotiates per pair: layout-matched pairs take the
   batched blit accounting (no plans), everyone else falls back to the
   plan path — the honest general case. *)
and plans_for t ~src ~dst =
  let plan_use () =
    Mobility.Conv_plan.make_use
      (Mobility.Code_repository.plan_cache t.repo)
      {
        Mobility.Conv_plan.pr_src = K.arch t.nodes.(src).n_kernel;
        pr_dst = K.arch t.nodes.(dst).n_kernel;
      }
  in
  match t.proto, t.wire_impl with
  | Enhanced, Enet.Wire.Plan -> Some (plan_use ())
  | Enhanced, Enet.Wire.Blit -> if blit_pair t ~src ~dst then None else Some (plan_use ())
  | Original, _ | Enhanced, Enet.Wire.Naive -> None

(* the negotiated common-layout fast path applies to a (src, dst) pair
   when the blit tier is selected and both ends' layout fingerprints
   (endianness, float format, word size, packing) match.  Source and
   destination evaluate the same deterministic predicate, so no
   per-message capability bit is needed on the wire. *)
and blit_pair t ~src ~dst =
  match wire_impl_of t with
  | Enet.Wire.Blit ->
    Isa.Arch.same_layout
      (K.arch t.nodes.(src).n_kernel)
      (K.arch t.nodes.(dst).n_kernel)
    (* a blitted image replays the source's saved PCs verbatim, so both
       ends must also be running the same code instance: differently-
       optimized instances place their bus stops at different PCs *)
    && Emc.Opt.equal
         (K.opt_level t.nodes.(src).n_kernel)
         (K.opt_level t.nodes.(dst).n_kernel)
  | Enet.Wire.Naive | Enet.Wire.Plan -> false

(* run an en/decode step and publish plan-cache and buffer-pool activity
   observed during it (diffs of the global counters) on the bus.
   Explicitly polymorphic in the result: inside the recursive delivery
   group it is used at both [string] (copying encode) and
   [Enet.Wire.view] (pooled encode) *)
and with_conv_extras : 'a. t -> node:int -> (unit -> 'a) -> 'a =
 fun t ~node f ->
  let pc = Mobility.Code_repository.plan_cache t.repo in
  let c0 = Mobility.Conv_plan.compiles pc and h0 = Mobility.Conv_plan.hits pc in
  let ph0 = Enet.Wire.Pool.hits () and pm0 = Enet.Wire.Pool.misses () in
  let hf0 = Enet.Wire.Pool.handoffs () in
  let r = f () in
  let dc = Mobility.Conv_plan.compiles pc - c0 in
  let dh = Mobility.Conv_plan.hits pc - h0 in
  if dc > 0 || dh > 0 then emit t ~node (E.Ev_plan { node; compiles = dc; hits = dh });
  let dph = Enet.Wire.Pool.hits () - ph0 in
  let dpm = Enet.Wire.Pool.misses () - pm0 in
  let dhf = Enet.Wire.Pool.handoffs () - hf0 in
  if dhf > 0 then CS.add_copies_saved t.nodes.(node).n_conv dhf;
  if dph > 0 || dpm > 0 || dhf > 0 then
    emit t ~node (E.Ev_pool { node; hits = dph; misses = dpm; copies_saved = dhf });
  r

and send_message t ~src (s : Mobility.Move.send) =
  let dst = s.Mobility.Move.snd_dest in
  let msg = s.Mobility.Move.snd_msg in
  if (not t.reliable) && t.nodes.(dst).n_crashed then begin
    (* reliable-wire model: a send to a known-dead interface is refused
       outright.  Under a fault plan the frame goes out anyway — the
       node may restart — and the loss is only reported when the
       retransmission budget is spent. *)
    if listening t then
      emit t ~node:src
        (E.Ev_msg_lost { src; dst; desc = Mobility.Marshal.describe msg })
    else E.count_msg t.bus ~node:src E.Msg_lost;
    drop_message t ~node:src msg ~reason:(Printf.sprintf "node %d is down" dst)
  end
  else begin
  check_protocol t ~src ~dst msg;
  let k = t.nodes.(src).n_kernel in
  let sp = t.spans_on in
  let pair = if sp then arch_pair t ~src ~dst else "" in
  (* the root move span: opened here for an outgoing M_move, starting at
     the time the generating event began the capture (recorded in
     [move_t0] by the Oc_move handler or the M_move_req delivery);
     closed at the destination when the move lands *)
  let root =
    match msg with
    | (Mobility.Marshal.M_move _ | Mobility.Marshal.M_group_move _) when sp ->
      let t0 =
        let v = t.move_t0.(src) in
        if Float.is_nan v then K.time_us k else v
      in
      t.move_t0.(src) <- Float.nan;
      Some (alloc_span_id t src, t0)
    | _ -> None
  in
  (* an original (non-forwarded) invocation opens the round-trip clock;
     closed when the reply lands back here *)
  (match msg with
  | Mobility.Marshal.M_invoke { reply; thread; _ }
    when sp && reply.T.ln_node = src ->
    Hashtbl.replace t.rpc_open.(src) (thread, reply.T.ln_seg) (pair, K.time_us k)
  | _ -> ());
  (match root with
  | Some (rid, rt0) ->
    let name =
      match msg with
      | Mobility.Marshal.M_group_move _ -> "group_pack"
      | _ -> "capture"
    in
    emit_span t ~node:src ~parent:rid ~pair ~name ~t0:rt0 ~t1:(K.time_us k) ()
  | None -> ());
  K.charge_us k CM.protocol_fixed_us;
  K.charge_insns k CM.protocol_send_insns;
  (* negotiated common-layout fast path: a matched pair ships the payload
     verbatim and skips the per-datum translate pass here (relocation at
     the destination still runs — addresses differ even when layouts
     match).  Counted once per outgoing move payload. *)
  let blit = blit_pair t ~src ~dst in
  (match (msg, wire_impl_of t) with
  | ( (Mobility.Marshal.M_move _ | Mobility.Marshal.M_group_move _),
      Enet.Wire.Blit ) ->
    emit t ~node:src (E.Ev_blit { node = src; dest = dst; skipped = blit })
  | _ -> ());
  let t_tr0 = if sp then K.time_us k else 0.0 in
  if not blit then charge_translation t ~node:src msg;
  let t_tr1 = if sp then K.time_us k else 0.0 in
  (match root with
  | Some (rid, _) ->
    emit_span t ~node:src ~parent:rid ~pair ~name:"translate" ~t0:t_tr0 ~t1:t_tr1 ()
  | None -> ());
  let span_tag =
    match root with
    | Some (rid, rt0) -> Some (rid.Obs.Span.id_node, rid.Obs.Span.id_seq, rt0)
    | None -> None
  in
  let stats = t.nodes.(src).n_conv in
  let calls0 = CS.calls stats and bytes0 = CS.bytes stats in
  let plans = plans_for t ~src ~dst in
  if not t.reliable then begin
    (* exactly-once receive on the reliable wire: the pooled encode
       buffer can be handed to the network without a copy and recycled
       by the receiver after decoding *)
    let payload =
      with_conv_extras t ~node:src (fun () ->
          Mobility.Marshal.encode_view ?plans ~blit ~impl:(wire_impl_of t) ~stats
            msg)
    in
    charge_conversion t ~node:src ~calls:(CS.calls stats - calls0)
      ~bytes:(CS.bytes stats - bytes0);
    (match root with
    | Some (rid, _) ->
      emit_span t ~node:src ~parent:rid ~bytes:(Enet.Wire.view_length payload)
        ~pair ~name:"marshal" ~t0:t_tr1 ~t1:(K.time_us k) ()
    | None -> ());
    if t.win_active then begin
      (* inside a parallel window the shared medium is off limits: post
         the send to the shard's outbox, keyed by the generating event,
         and let the barrier replay the medium fold in canonical order.
         The Ev_msg_send needs the arrival the barrier will compute, so
         it is buffered (or counted) as a [dsend]. *)
      let sh = t.shards.(t.owner.(src)) in
      sh.sh_seq <- sh.sh_seq + 1;
      let entry =
        Enet.Netsim.Outbox.post ?span:span_tag sh.sh_outbox ~time:sh.sh_key_time
          ~rank:sh.sh_key_rank ~seq:sh.sh_seq ~now_us:(K.time_us k) ~src ~dst
          ~payload
      in
      if t.win_buffering then begin
        let d =
          { ds_entry = entry; ds_time = K.time_us k; ds_src = src; ds_dst = dst;
            ds_desc = Mobility.Marshal.describe msg;
            ds_bytes = Enet.Wire.view_length payload;
            ds_span =
              (match root with
              | Some (rid, _) -> Some (alloc_span_id t src, rid, pair)
              | None -> None) }
        in
        sh.sh_buf <- (sh.sh_key_time, sh.sh_key_rank, sh.sh_seq, B_send d) :: sh.sh_buf
      end
      else
        (* nobody listening: only the counter is observable, and the
           sender's counters are owned by this shard *)
        E.count_msg t.bus ~node:src E.Msg_sent
    end
    else begin
      let now = K.time_us k in
      let arrival =
        Enet.Netsim.send_view ?span:span_tag t.net ~now_us:now ~src ~dst ~payload
      in
      if listening t then
        emit t ~node:src
          (E.Ev_msg_send
             { time = now; src; dst; desc = Mobility.Marshal.describe msg;
               bytes = Enet.Wire.view_length payload; arrives = arrival })
      else E.count_msg t.bus ~node:src E.Msg_sent;
      match root with
      | Some (rid, _) ->
        emit_span t ~node:src ~parent:rid ~bytes:(Enet.Wire.view_length payload)
          ~pair ~name:"transfer" ~t0:now ~t1:arrival ()
      | None -> ()
    end
  end
  else begin
    (* the retry/ack envelope retransmits the cached frame, so the
       payload must outlive this send: keep the copying encode *)
    let payload =
      with_conv_extras t ~node:src (fun () ->
          Mobility.Marshal.encode ?plans ~blit ~impl:(wire_impl_of t) ~stats msg)
    in
    charge_conversion t ~node:src ~calls:(CS.calls stats - calls0)
      ~bytes:(CS.bytes stats - bytes0);
    (match root with
    | Some (rid, _) ->
      emit_span t ~node:src ~parent:rid ~bytes:(String.length payload) ~pair
        ~name:"marshal" ~t0:t_tr1 ~t1:(K.time_us k) ()
    | None -> ());
    let seq = t.next_seq.(src) in
    t.next_seq.(src) <- seq + 1;
    let frame = data_frame ~seq payload in
    let now = K.time_us k in
    let arrival =
      Enet.Netsim.send ?span:span_tag t.net ~now_us:now ~src ~dst ~payload:frame
    in
    if listening t then
      emit t ~node:src
        (E.Ev_msg_send
           { time = now; src; dst; desc = Mobility.Marshal.describe msg;
             bytes = String.length frame; arrives = arrival })
    else E.count_msg t.bus ~node:src E.Msg_sent;
    (match root with
    | Some (rid, _) ->
      emit_span t ~node:src ~parent:rid ~bytes:(String.length frame) ~pair
        ~name:"transfer" ~t0:now ~t1:arrival ()
    | None -> ());
    let p =
      { p_seq = seq; p_dst = dst; p_frame = frame; p_msg = msg; p_span = span_tag;
        p_attempts = 1; p_next_at = now +. tr_rto_us }
    in
    Hashtbl.replace t.outstanding.(src) seq p;
    (* the engine holds at most one timer entry per node; if one is
       already queued later than this deadline, the pop will process
       this entry past due and reschedule at the then-earliest — a late
       retransmit, never a lost one *)
    Engine.schedule (eng t src) ~at:p.p_next_at (Engine.Timer src)
  end
  end

(* Emerald's broadcast location search: probe every live node; park the
   unroutable message until an answer arrives *)
and start_search t ~asker obj msg =
  let tbl = search_tbl t ~asker in
  match Hashtbl.find_opt tbl obj with
  | Some s -> s.s_pending <- msg :: s.s_pending
  | None ->
    let others = ref [] in
    Array.iteri
      (fun i n -> if i <> asker && not n.n_crashed then others := i :: !others)
      t.nodes;
    (match !others with
    | [] ->
      drop_message t ~node:asker msg
        ~reason:(Printf.sprintf "object %s cannot be located" (Ert.Oid.to_string obj))
    | probes ->
      emit t ~node:asker
        (E.Ev_search_start { node = asker; obj; probes = List.length probes });
      Hashtbl.replace tbl obj
        { s_asker = asker; s_pending = [ msg ]; s_awaiting = List.length probes };
      List.iter
        (fun i ->
          send_message t ~src:asker
            { Mobility.Move.snd_dest = i; snd_msg = Mobility.Marshal.M_locate { obj } })
        probes)

(* An exhausted (or absent) proxy chain.  With the directory on, ask the
   object's home shard — one unicast instead of the broadcast — parking
   the message until the answer; the broadcast search remains the
   fallback of last resort (home unreachable, no entry, stale answer). *)
let locate_fallback t ~asker obj msg =
  match t.location with
  | Loc_off | Loc_collapse -> start_search t ~asker obj msg
  | Loc_directory ->
    let home = Loc.Partition.home t.partition obj in
    if home = asker then begin
      (* the asker owns the home shard: consult it locally *)
      let hit = Loc.Directory.lookup t.dirs.(asker) obj in
      emit t ~node:asker
        (E.Ev_dir_lookup { node = asker; obj; found = hit <> None });
      match hit with
      | Some e
        when e.Loc.Directory.le_node <> asker
             && not t.nodes.(e.Loc.Directory.le_node).n_crashed ->
        let k = t.nodes.(asker).n_kernel in
        let addr = K.ensure_ref k obj in
        K.set_proxy_hint k ~addr ~node:e.Loc.Directory.le_node;
        send_message t ~src:asker
          { Mobility.Move.snd_dest = e.Loc.Directory.le_node; snd_msg = msg }
      | Some _ | None -> start_search t ~asker obj msg
    end
    else if t.nodes.(home).n_crashed && not t.reliable then
      (* a known-dead home shard cannot answer; under a fault plan the
         lookup goes out anyway and the retry budget decides *)
      start_search t ~asker obj msg
    else begin
      let waits = t.dir_waits.(asker) in
      match Hashtbl.find_opt waits obj with
      | Some pending -> Hashtbl.replace waits obj (msg :: pending)
      | None ->
        Hashtbl.replace waits obj [ msg ];
        send_message t ~src:asker
          { Mobility.Move.snd_dest = home;
            snd_msg = Mobility.Marshal.M_dir_lookup { obj } }
    end

(* After a move (or group move) lands with the directory on, tell each
   moved object's home shard where it went.  Updates are batched per
   home and the homes are walked in ascending order, so the published
   traffic is identical at any shard count. *)
let publish_locations t ~dst payload =
  if t.location = Loc_directory then begin
    let k = t.nodes.(dst).n_kernel in
    let at = K.time_us k in
    let by_home = Hashtbl.create 8 in
    let homes = ref [] in
    List.iter
      (fun (mo : Mobility.Marshal.move_object) ->
        let oid = mo.Mobility.Marshal.mo_oid in
        let home = Loc.Partition.home t.partition oid in
        match Hashtbl.find_opt by_home home with
        | Some l -> Hashtbl.replace by_home home (oid :: l)
        | None ->
          homes := home :: !homes;
          Hashtbl.replace by_home home [ oid ])
      payload.Mobility.Marshal.mp_objects;
    List.iter
      (fun home ->
        let objs = List.rev (Hashtbl.find by_home home) in
        if home = dst then
          (* the destination owns the home shard: no traffic needed *)
          List.iter
            (fun obj ->
              let applied = Loc.Directory.update t.dirs.(dst) obj ~node:dst ~at in
              emit t ~node:dst
                (E.Ev_dir_update { node = dst; obj; loc = dst; applied }))
            objs
        else
          send_message t ~src:dst
            { Mobility.Move.snd_dest = home;
              snd_msg = Mobility.Marshal.M_dir_update { objs; node = dst; at } })
      (List.sort compare !homes)
  end

(* Asynchronous migration (DESIGN.md §13): the capture/translate/marshal
   pipeline runs on a background mover engine, so the source's other
   threads keep the CPU while the payload is prepared.  The pipeline cost
   is still charged synchronously — the payload's wire timestamp, and
   hence its arrival, is identical to the synchronous path — and then
   refunded against the source clock, rolling it back to the instant the
   capture began.  The "overlap" span records the refunded interval. *)
let credit_overlap t ~src ~dest ~d_pipeline ~t_end =
  if t.async_migration then begin
    let credit = d_pipeline in
    if credit > 0.0 then begin
      K.credit_us t.nodes.(src).n_kernel credit;
      if t.spans_on then
        emit_span t ~node:src
          ~pair:(arch_pair t ~src ~dst:dest)
          ~name:"overlap" ~t0:(t_end -. credit) ~t1:t_end ()
    end
  end

(* under preemptive scheduling, segments may sit between bus stops; run
   them forward to well-defined states before any migration capture *)
let rec quiesce_node t i =
  let k = t.nodes.(i).n_kernel in
  if K.quantum k <> None then
    List.iter
      (fun seg ->
        if not (K.at_stop k seg) then
          List.iter (handle_outcall t ~src:i) (K.advance_to_stop k seg))
      (K.segments k)

and handle_outcall t ~src (oc : K.outcall) =
  let k = t.nodes.(src).n_kernel in
  let sends =
    match oc with
    | K.Oc_invoke { seg; target_oid; hint_node; callee_class; callee_method; args; stop_id = _ } ->
      K.charge_insns k CM.invoke_dispatch_insns;
      Mobility.Rpc.initiate_invoke ~k ~target_oid ~hint_node ~callee_class
        ~callee_method ~args ~caller_seg:seg.T.seg_id ~thread:seg.T.seg_thread
    | K.Oc_move { seg; obj_addr; dest_node } ->
      emit t ~node:src
        (E.Ev_move_start
           { time = K.time_us k; node = src; obj = K.oid_at k obj_addr;
             dest = dest_node });
      if t.spans_on then t.move_t0.(src) <- K.time_us k;
      quiesce_node t src;
      (* send-off under an active mark cycle: grey the departing
         segment's roots and the moved object before capture removes
         them from the root set *)
      (match t.gcs.(src) with
      | Some cy ->
        Ert.Gc.grey_segment cy k seg;
        Ert.Gc.grey_addr cy k obj_addr
      | None -> ());
      let tq1 = K.time_us k in
      let sends = Mobility.Move.initiate ~k ~mover:seg ~obj_addr ~dest:dest_node in
      (* the pipeline's virtual cost (protocol, translate, conversion) is
         charged by [send_message]: dispatch here so the overlap credit
         sees the whole capture-to-wire interval *)
      List.iter (send_message t ~src) sends;
      let t_cap1 = K.time_us k in
      credit_overlap t ~src ~dest:dest_node ~d_pipeline:(t_cap1 -. tq1)
        ~t_end:t_cap1;
      []
    | K.Oc_evict { seg; dest_node; armed_us } ->
      emit t ~node:src
        (E.Ev_evict
           { time = K.time_us k; node = src; seg_id = seg.T.seg_id;
             dest = dest_node });
      let t_fire = K.time_us k in
      if t.spans_on then t.move_t0.(src) <- t_fire;
      quiesce_node t src;
      (match t.gcs.(src) with
      | Some cy -> Ert.Gc.grey_segment cy k seg
      | None -> ());
      let tq1 = K.time_us k in
      let sends = Mobility.Move.initiate_evict ~k ~seg ~dest:dest_node in
      List.iter (send_message t ~src) sends;
      let t_cap1 = K.time_us k in
      (* the eviction span covers trap-arm to wire-out (the victim may
         have run to its bus stop in between); its children
         (capture/translate/marshal/transfer…) hang off the move root
         opened by [send_message] *)
      if t.spans_on then
        emit_span t ~node:src
          ~pair:(arch_pair t ~src ~dst:dest_node)
          ~name:"evict" ~t0:(Float.min armed_us t_cap1) ~t1:t_cap1 ();
      credit_overlap t ~src ~dest:dest_node ~d_pipeline:(t_cap1 -. tq1)
        ~t_end:t_cap1;
      []
    | K.Oc_return { link; value; thread } ->
      if link.T.ln_node = src then begin
        (* same-node segment chain: deliver directly *)
        match K.find_segment k link.T.ln_seg with
        | Some seg ->
          K.deliver_result k seg value;
          []
        | None -> Mobility.Rpc.handle_reply ~k ~to_seg:link.T.ln_seg ~value ~thread
      end
      else [ Mobility.Rpc.initiate_return ~link ~value ~thread ]
    | K.Oc_start_process { target_oid; hint_node } ->
      let dest = if hint_node = src then Option.value (Ert.Oid.creator_node target_oid) ~default:0 else hint_node in
      [
        {
          Mobility.Move.snd_dest = dest;
          snd_msg = Mobility.Marshal.M_start_process { obj = target_oid; forwards = 0 };
        };
      ]
  in
  List.iter (send_message t ~src) sends

let deliver t ~dst (m : Enet.Netsim.message) =
  let k = t.nodes.(dst).n_kernel in
  K.set_time_us k m.Enet.Netsim.msg_arrives_at;
  let sp = t.spans_on in
  (* the sender's move-span tag (root id + start time), if this message
     carries a move and tracing is on *)
  let tag = if sp then m.Enet.Netsim.msg_span else None in
  let t_arr = if sp then K.time_us k else 0.0 in
  K.charge_us k CM.protocol_fixed_us;
  K.charge_insns k CM.protocol_recv_insns;
  let stats = t.nodes.(dst).n_conv in
  let calls0 = CS.calls stats and bytes0 = CS.bytes stats in
  let plans = plans_for t ~src:m.Enet.Netsim.msg_src ~dst in
  (* the receiver re-evaluates the same deterministic layout predicate
     the sender used, so the blit codec needs no capability bit on the
     wire *)
  let blit = blit_pair t ~src:m.Enet.Netsim.msg_src ~dst in
  (* decoding is the last read: a pooled payload buffer goes back to the
     free list (sub-views and string-backed views are no-ops) — also on
     a decode failure, or it would leak from the pool *)
  let msg =
    Fun.protect
      ~finally:(fun () -> Enet.Wire.release_view m.Enet.Netsim.msg_payload)
      (fun () ->
        with_conv_extras t ~node:dst (fun () ->
            Mobility.Marshal.decode_view ?plans ~blit ~impl:(wire_impl_of t)
              ~stats m.Enet.Netsim.msg_payload))
  in
  charge_conversion t ~node:dst ~calls:(CS.calls stats - calls0)
    ~bytes:(CS.bytes stats - bytes0);
  let t_unm1 = if tag <> None then K.time_us k else 0.0 in
  if not blit then charge_translation t ~node:dst msg;
  (match tag with
  | Some (rn, rs, _) ->
    let parent = { Obs.Span.id_node = rn; id_seq = rs } in
    let pair = arch_pair t ~src:m.Enet.Netsim.msg_src ~dst in
    emit_span t ~node:dst ~parent ~pair ~name:"unmarshal" ~t0:t_arr ~t1:t_unm1 ();
    emit_span t ~node:dst ~parent ~pair ~name:"rebuild" ~t0:t_unm1
      ~t1:(K.time_us k) ()
  | None -> ());
  if listening t then
    emit t ~node:dst
      (E.Ev_msg_deliver
         { time = K.time_us k; node = dst; desc = Mobility.Marshal.describe msg })
  else E.count_msg t.bus ~node:dst E.Msg_delivered;
  let sends =
    match msg with
    | Mobility.Marshal.M_invoke _ | Mobility.Marshal.M_invoke_via _ -> (
      (* the hop trail: empty for a first-hop invoke, the list of nodes
         already traversed for a via-wrapped one (location modes only) *)
      let via, inv =
        match msg with
        | Mobility.Marshal.M_invoke_via { via; inv } -> (via, inv)
        | inv -> ([], inv)
      in
      match inv with
      | Mobility.Marshal.M_invoke
          { target; callee_class; callee_method; args; reply; thread; forwards } -> (
        (* under a fault plan, a message of an already-aborted thread can
           still arrive (its abort raced a copy in flight); resurrecting
           the continuation would violate the no-orphans invariant *)
        if t.reliable && Hashtbl.mem t.failures thread then []
        else begin
        K.charge_insns k CM.invoke_dispatch_insns;
        match
          Mobility.Rpc.handle_invoke ~k ~target ~callee_class ~callee_method ~args
            ~reply ~thread ~forwards
        with
        | Mobility.Rpc.Routed [] ->
          (* the target is here: the walk is over.  Collapse the chain it
             came through — every traversed node, plus the caller, gets a
             hint pointing straight at this host (ascending node order,
             so the fanout is deterministic at any shard count) *)
          if t.location = Loc_off then []
          else begin
            emit t ~node:dst
              (E.Ev_locate { node = dst; obj = target; hops = List.length via });
            if via = [] then []
            else
              List.filter_map
                (fun n ->
                  if n = dst then None
                  else
                    Some
                      { Mobility.Move.snd_dest = n;
                        snd_msg =
                          Mobility.Marshal.M_loc_hint { obj = target; node = dst } })
                (List.sort_uniq compare (reply.T.ln_node :: via))
          end
        | Mobility.Rpc.Routed sends ->
          (* forwarding along a proxy chain: record this hop in the trail
             so the eventual host knows whom to collapse *)
          if t.location = Loc_off then sends
          else
            List.map
              (fun s ->
                match s.Mobility.Move.snd_msg with
                | Mobility.Marshal.M_invoke _ as fwd ->
                  { s with
                    Mobility.Move.snd_msg =
                      Mobility.Marshal.M_invoke_via { via = via @ [ dst ]; inv = fwd }
                  }
                | _ -> s)
              sends
        | Mobility.Rpc.Unlocated unl ->
          let unl =
            if t.location = Loc_off then unl
            else Mobility.Marshal.M_invoke_via { via = via @ [ dst ]; inv = unl }
          in
          locate_fallback t ~asker:dst target unl;
          []
        end)
      | _ ->
        (* an M_invoke_via always wraps an M_invoke (see marshal.mli) *)
        assert false)
    | Mobility.Marshal.M_reply { to_seg; value; thread } ->
      (* close the round-trip clock opened when the original M_invoke
         left this node (same node, hence same shard: race-free) *)
      (if sp then
         match Hashtbl.find_opt t.rpc_open.(dst) (thread, to_seg) with
         | Some (pair0, t0) ->
           Hashtbl.remove t.rpc_open.(dst) (thread, to_seg);
           emit_span t ~node:dst ~pair:pair0 ~name:"rpc" ~t0 ~t1:(K.time_us k) ()
         | None -> ());
      if t.reliable && Hashtbl.mem t.failures thread then []
      else Mobility.Rpc.handle_reply ~k ~to_seg ~value ~thread
    | Mobility.Marshal.M_move_req { obj; dest; forwards } ->
      (* a remote-initiated move: the capture clock starts when the
         request reaches the object's host (this node) *)
      if sp then t.move_t0.(dst) <- K.time_us k;
      quiesce_node t dst;
      Mobility.Move.handle_move_req ~k ~obj ~dest ~forwards
    | (Mobility.Marshal.M_move payload | Mobility.Marshal.M_group_move payload) as mv
      ->
      (* a group move reuses the whole single-move landing path; only the
         span name marks the batched unpack *)
      let unpack_name =
        match mv with
        | Mobility.Marshal.M_group_move _ -> "group_unpack"
        | _ -> "relocate"
      in
      let t_rel0 = if tag <> None then K.time_us k else 0.0 in
      let mstats = Mobility.Move.apply_move k payload in
      K.charge_insns k (mstats.Mobility.Move.ap_frames * CM.relocation_insns_per_frame);
      (match tag with
      | Some (rn, rs, rt0) ->
        let rid = { Obs.Span.id_node = rn; id_seq = rs } in
        let pair = arch_pair t ~src:m.Enet.Netsim.msg_src ~dst in
        let t_end = K.time_us k in
        emit_span t ~node:dst ~parent:rid ~pair ~name:unpack_name ~t0:t_rel0
          ~t1:t_end ();
        (* the root span, closed where the move lands; its id was
           allocated at the source and rode the message tag *)
        emit t ~node:dst
          (E.Ev_span
             { Obs.Span.name = "move"; node = dst; arch_pair = pair;
               t_start_us = rt0; t_end_us = t_end; id = rid; parent = None;
               bytes = 0 })
      | None -> ());
      emit t ~node:dst
        (E.Ev_move_finish
           { time = K.time_us k; node = dst;
             objects = mstats.Mobility.Move.ap_objects;
             segments = mstats.Mobility.Move.ap_segments;
             frames = mstats.Mobility.Move.ap_frames });
      if mstats.Mobility.Move.ap_bridged > 0 then
        emit t ~node:dst
          (E.Ev_bridge
             { time = K.time_us k; node = dst;
               count = mstats.Mobility.Move.ap_bridged;
               src_level = mstats.Mobility.Move.ap_src_opt;
               dst_level = Emc.Opt.to_int (K.opt_level k) });
      (* a move payload can land after its thread was reported lost (the
         abort raced a copy in flight); reap the resurrected segments so
         the dead continuation cannot run *)
      if t.reliable && mstats.Mobility.Move.ap_segments > 0 then
        List.iter
          (fun (seg : T.segment) ->
            if seg.T.seg_status <> T.Dead && Hashtbl.mem t.failures seg.T.seg_thread
            then K.retire_segment k seg)
          (K.segments k);
      publish_locations t ~dst payload;
      []
    | Mobility.Marshal.M_start_process { obj; forwards } -> (
      match K.find_object k obj with
      | Some addr ->
        ignore (K.start_process_if_any k ~target_addr:addr);
        []
      | None -> (
        let msg = Mobility.Marshal.M_start_process { obj; forwards = forwards + 1 } in
        let hop =
          if forwards >= 4 then None
          else
            Option.map (fun addr -> K.proxy_hint k addr) (K.proxy_of k obj)
        in
        match hop with
        | Some node when node <> dst ->
          [ { Mobility.Move.snd_dest = node; snd_msg = msg } ]
        | Some _ | None ->
          start_search t ~asker:dst obj msg;
          []))
    | Mobility.Marshal.M_locate { obj } ->
      let found = K.find_object k obj <> None in
      [
        {
          Mobility.Move.snd_dest = m.Enet.Netsim.msg_src;
          snd_msg = Mobility.Marshal.M_located { obj; found };
        };
      ]
    | Mobility.Marshal.M_located { obj; found } -> (
      let tbl = search_tbl t ~asker:dst in
      match Hashtbl.find_opt tbl obj with
      | None -> [] (* a late or duplicate answer *)
      | Some s ->
        if found then begin
          let host = m.Enet.Netsim.msg_src in
          Hashtbl.remove tbl obj;
          emit t ~node:dst (E.Ev_search_found { obj; node = host });
          (* refresh the local forwarding hint *)
          let addr = K.ensure_ref k obj in
          K.set_proxy_hint k ~addr ~node:host;
          List.map
            (fun msg -> { Mobility.Move.snd_dest = host; snd_msg = msg })
            s.s_pending
        end
        else begin
          search_negative t tbl obj s;
          []
        end)
    | Mobility.Marshal.M_dir_update { objs; node; at } ->
      (* a publish reaching this home shard; last-writer-wins by virtual
         timestamp, so reordered publishes of a ping-ponging object
         cannot regress the entry *)
      List.iter
        (fun obj ->
          let applied = Loc.Directory.update t.dirs.(dst) obj ~node ~at in
          emit t ~node:dst (E.Ev_dir_update { node = dst; obj; loc = node; applied }))
        objs;
      []
    | Mobility.Marshal.M_dir_lookup { obj } ->
      let hit = Loc.Directory.lookup t.dirs.(dst) obj in
      emit t ~node:dst (E.Ev_dir_lookup { node = dst; obj; found = hit <> None });
      let node, known =
        match hit with
        | Some e -> (e.Loc.Directory.le_node, true)
        | None -> (0, false)
      in
      [
        {
          Mobility.Move.snd_dest = m.Enet.Netsim.msg_src;
          snd_msg = Mobility.Marshal.M_dir_reply { obj; node; known };
        };
      ]
    | Mobility.Marshal.M_dir_reply { obj; node; known } -> (
      let waits = t.dir_waits.(dst) in
      match Hashtbl.find_opt waits obj with
      | None -> [] (* a late or duplicate answer; the messages moved on *)
      | Some pending ->
        Hashtbl.remove waits obj;
        let pending = List.rev pending in
        if known && node <> dst && (t.reliable || not t.nodes.(node).n_crashed)
        then begin
          (* the answer doubles as a forwarding hint: future invokes go
             direct instead of through the directory again *)
          let addr = K.ensure_ref k obj in
          K.set_proxy_hint k ~addr ~node;
          List.map
            (fun msg -> { Mobility.Move.snd_dest = node; snd_msg = msg })
            pending
        end
        else if K.find_object k obj <> None then
          (* the entry pointed here and it was right: the object came
             home while we were asking.  Re-deliver to ourselves so the
             pending invokes take the normal found path *)
          List.map
            (fun msg -> { Mobility.Move.snd_dest = dst; snd_msg = msg })
            pending
        else begin
          match Option.map (fun addr -> K.proxy_hint k addr) (K.proxy_of k obj) with
          | Some hop
            when hop <> dst && (t.reliable || not t.nodes.(hop).n_crashed) ->
            (* the entry points here because we hosted the object once
               and its departure published later than our own — our
               forwarding proxy is fresher than the directory, so resume
               the chain walk from it instead of broadcasting (a search
               racing the in-flight transfer would see every probe come
               back negative and wrongly report the object lost) *)
            List.map
              (fun msg -> { Mobility.Move.snd_dest = hop; snd_msg = msg })
              pending
          | _ ->
            (* no entry and no trail: broadcast search, last resort *)
            List.iter (fun msg -> start_search t ~asker:dst obj msg) pending;
            []
        end)
    | Mobility.Marshal.M_loc_hint { obj; node } ->
      (* chain collapse: repoint this node's forwarding proxy straight at
         the object's current host.  A hint racing the object home (we
         host it again) is simply ignored *)
      if K.find_object k obj = None && node <> dst then begin
        let addr = K.ensure_ref k obj in
        K.set_proxy_hint k ~addr ~node;
        emit t ~node:dst (E.Ev_collapse { node = dst; obj; loc = node })
      end;
      []
  in
  List.iter (send_message t ~src:dst) sends

(* ----------------------------------------------------------------------- *)
(* the discrete-event loop *)

(* automatic collection: the templates identify pointers only at bus
   stops, so under preemptive scheduling the node is quiesced first —
   the same discipline migration capture uses (section 2.2.1); without
   a quantum every segment is already parked between events *)
let note_collection t i =
  if t.win_active then begin
    let sh = t.shards.(t.owner.(i)) in
    sh.sh_collections <- sh.sh_collections + 1
  end
  else t.collections <- t.collections + 1

let do_collect_stw t i =
  quiesce_node t i;
  let k = t.nodes.(i).n_kernel in
  let stats = Ert.Gc.collect ~extra_roots:t.pinned k in
  note_collection t i;
  K.charge_insns k (2000 + (stats.Ert.Gc.gc_live * 40));
  emit t ~node:i
    (E.Ev_gc
       { time = K.time_us k; node = i; swept = stats.Ert.Gc.gc_swept;
         live = stats.Ert.Gc.gc_live; bytes_freed = stats.Ert.Gc.gc_bytes_freed })

(* one bounded increment of the incremental tier (DESIGN.md §17).
   Opening a cycle quiesces the node exactly as the stop-the-world tier
   does — the atomic root scan happens inside the first [step] and the
   templates identify pointers only at bus stops; every later increment
   interleaves with execution, protected by the write barrier and graft
   hook, and is charged [120 + scanned*40] instructions instead of the
   lump pause.  The cycle drives itself to completion by self-scheduling
   [Engine.Gc] at the post-charge clock; [Engine]'s dedup makes that
   safe alongside the Step handler's threshold checks. *)
let gc_increment t i =
  let k = t.nodes.(i).n_kernel in
  let cy =
    match t.gcs.(i) with
    | Some cy -> cy
    | None ->
      quiesce_node t i;
      let cy = Ert.Gc.start ~extra_roots:t.pinned k in
      t.gcs.(i) <- Some cy;
      (* snapshot + barrier installation *)
      K.charge_insns k 400;
      cy
  in
  let t0 = K.time_us k in
  let finish_increment ~phase ~scanned =
    K.charge_insns k (120 + (scanned * 40));
    let t1 = K.time_us k in
    emit t ~node:i
      (E.Ev_gc_phase
         { time = t1; node = i; phase; scanned; pause_us = t1 -. t0 });
    if t.spans_on then
      emit_span t ~node:i ~pair:(arch_pair t ~src:i ~dst:i) ~name:phase ~t0 ~t1
        ();
    t1
  in
  match Ert.Gc.step cy k ~budget:t.gc_budget with
  | Ert.Gc.Step_more { scanned; phase } ->
    let t1 = finish_increment ~phase:(Ert.Gc.phase_name phase) ~scanned in
    Engine.schedule (eng t i) ~at:t1 (Engine.Gc i)
  | Ert.Gc.Step_done { scanned; stats } ->
    t.gcs.(i) <- None;
    let t1 = finish_increment ~phase:"gc_sweep" ~scanned in
    note_collection t i;
    emit t ~node:i
      (E.Ev_gc
         { time = t1; node = i; swept = stats.Ert.Gc.gc_swept;
           live = stats.Ert.Gc.gc_live;
           bytes_freed = stats.Ert.Gc.gc_bytes_freed })

let do_collect t i =
  match t.gc_mode with
  | Gc_stw -> do_collect_stw t i
  | Gc_incremental -> gc_increment t i

(* an increment already queued its successor; only the threshold starts
   a brand-new cycle (matching the stop-the-world cadence) *)
let gc_pending t i = t.gcs.(i) <> None

let over_gc_threshold t i =
  Ert.Heap.live_bytes (K.heap (t.nodes.(i).n_kernel)) > t.gc_threshold_i

(* --- the seed's O(nodes) selection scan, kept as the [Scan] scheduler
   (the heap engine is cross-checked against it, and the scaling
   benchmark measures the difference) --- *)

type scan_event =
  | E_deliver of int * float
  | E_step of int * float

let next_event_scan t =
  let best = ref None in
  let better time =
    match !best with
    | None -> true
    | Some (E_deliver (_, bt) | E_step (_, bt)) -> time < bt
  in
  (* message deliveries first on ties (lower effective time wins) *)
  Array.iteri
    (fun i n ->
      match Enet.Netsim.next_arrival_at t.net ~dst:i with
      | Some arrival ->
        (* packets addressed to a dead interface still need draining *)
        let eff = Float.max arrival (K.time_us n.n_kernel) in
        if better eff then best := Some (E_deliver (i, eff))
      | None -> ())
    t.nodes;
  Array.iteri
    (fun i n ->
      if (not n.n_crashed) && K.has_ready n.n_kernel then begin
        let time = K.time_us n.n_kernel in
        if better time then best := Some (E_step (i, time))
      end)
    t.nodes;
  !best

(* the reliable-transport receive path: unwrap the envelope, ack every
   data frame (even duplicates — the first ack may itself have been
   lost), suppress (src, seq) pairs already delivered, and clear the
   sender's retransmission state on ack receipt *)
let deliver_reliable t i (m : Enet.Netsim.message) =
  let src = m.Enet.Netsim.msg_src in
  if t.nodes.(i).n_crashed then
    (* a dead interface drains the frame silently; the sender's
       retransmission timer decides the message's fate *)
    ()
  else
    match unwrap_frame m.Enet.Netsim.msg_payload with
    | Frame_ack seq ->
      let k = t.nodes.(i).n_kernel in
      K.set_time_us k m.Enet.Netsim.msg_arrives_at;
      K.charge_us k CM.protocol_fixed_us;
      if Hashtbl.mem t.outstanding.(i) seq then begin
        Hashtbl.remove t.outstanding.(i) seq;
        emit t ~node:i (E.Ev_ack { node = i; seq })
      end
    | Frame_data (seq, inner) ->
      let k = t.nodes.(i).n_kernel in
      K.set_time_us k m.Enet.Netsim.msg_arrives_at;
      ignore
        (Enet.Netsim.send t.net ~now_us:(K.time_us k) ~src:i ~dst:src
           ~payload:(ack_frame seq)
          : float);
      if Hashtbl.mem t.seen.(i) (src, seq) then begin
        K.charge_us k CM.protocol_fixed_us;
        emit t ~node:i (E.Ev_msg_dup { node = i; src; seq })
      end
      else begin
        Hashtbl.add t.seen.(i) (src, seq) ();
        deliver t ~dst:i { m with Enet.Netsim.msg_payload = inner }
      end

let count_event t i =
  if t.win_active then begin
    let sh = t.shards.(t.owner.(i)) in
    sh.sh_events <- sh.sh_events + 1
  end
  else t.events <- t.events + 1

let exec_deliver t i eff =
  count_event t i;
  match Enet.Netsim.receive t.net ~dst:i ~now_us:eff with
  | None -> ()
  | Some m when t.reliable -> deliver_reliable t i m
  | Some m when t.nodes.(i).n_crashed ->
    let stats = CS.create () in
    let msg =
      Fun.protect
        ~finally:(fun () -> Enet.Wire.release_view m.Enet.Netsim.msg_payload)
        (fun () ->
          Mobility.Marshal.decode_view
            ~blit:(blit_pair t ~src:m.Enet.Netsim.msg_src ~dst:i)
            ~impl:(wire_impl_of t) ~stats m.Enet.Netsim.msg_payload)
    in
    if listening t then
      emit t ~node:i (E.Ev_msg_drop { node = i; desc = Mobility.Marshal.describe msg })
    else E.count_msg t.bus ~node:i E.Msg_lost;
    drop_message t ~node:i msg ~reason:(Printf.sprintf "node %d is down" i)
  | Some m -> deliver t ~dst:i m

let exec_step t i ~time =
  count_event t i;
  let k = t.nodes.(i).n_kernel in
  (if t.win_active && t.win_buffering then
     emit t ~node:i (E.Ev_step { node = i; time })
   else E.emit_step t.bus ~node:i ~time);
  match K.step k with
  | [] -> ()
  | outs -> List.iter (handle_outcall t ~src:i) outs

let step_once_scan t =
  match next_event_scan t with
  | None -> false
  | Some (E_deliver (i, eff)) ->
    exec_deliver t i eff;
    true
  | Some (E_step (i, time)) ->
    exec_step t i ~time;
    if over_gc_threshold t i then do_collect t i;
    true

(* --- the heap engine loop.  Entries are revalidated when popped: a
   node's clock may have advanced past its queued step, or a message
   queue's head may now arrive effectively later; stale entries are
   rescheduled at the corrected (always later) time and the pop costs
   nothing.  Executed events therefore come out in exactly the order the
   scan would have chosen. *)

(* Harness code may mutate a kernel behind the cluster's back (tests
   drive [Mobility.Checkpoint.restore] on a kernel directly, for
   instance), so an empty heap does not yet prove quiescence: rescan
   once and reseed anything runnable.  This is the only O(nodes) scan
   left, and it runs once per drain, not per event. *)
let reseed t =
  let any = ref false in
  Array.iteri
    (fun i n ->
      if (not n.n_crashed) && K.has_ready n.n_kernel then begin
        Engine.schedule (eng t i) ~at:(K.time_us n.n_kernel) (Engine.Step i);
        any := true
      end;
      (* a node whose segments all sit in timed waits has no ready work,
         so only its wake keeps the simulation from quiescing early *)
      (match K.next_timeout n.n_kernel with
      | Some d when not n.n_crashed ->
        Engine.schedule (eng t i) ~at:d (Engine.Wake i);
        any := true
      | _ -> ());
      match Enet.Netsim.next_arrival_at t.net ~dst:i with
      | Some a ->
        Engine.schedule (eng t i)
          ~at:(Float.max a (K.time_us n.n_kernel))
          (Engine.Deliver i);
        any := true
      | None -> ())
    t.nodes;
  !any

(* one due retransmission deadline: either resend with doubled backoff or,
   with the attempt budget spent, report the loss and abort whatever was
   riding on the message *)
let retransmit_due t i ~now p =
  if p.p_attempts >= tr_max_attempts then begin
    Hashtbl.remove t.outstanding.(i) p.p_seq;
    if listening t then
      emit t ~node:i
        (E.Ev_msg_lost
           { src = i; dst = p.p_dst; desc = Mobility.Marshal.describe p.p_msg })
    else E.count_msg t.bus ~node:i E.Msg_lost;
    drop_message t ~node:i p.p_msg
      ~reason:
        (Printf.sprintf "no acknowledgement from node %d after %d attempts"
           p.p_dst p.p_attempts)
  end
  else begin
    p.p_attempts <- p.p_attempts + 1;
    let backoff =
      Float.min tr_rto_max_us (tr_rto_us *. (2. ** float_of_int (p.p_attempts - 1)))
    in
    p.p_next_at <- now +. backoff;
    emit t ~node:i
      (E.Ev_retransmit { node = i; dst = p.p_dst; seq = p.p_seq;
                         attempt = p.p_attempts });
    ignore (Enet.Netsim.send ?span:p.p_span t.net ~now_us:now ~src:i ~dst:p.p_dst
              ~payload:p.p_frame : float)
  end

(* The sequential merge: the globally earliest event is the smallest
   (time, rank) across the per-shard engine heads.  The rank is
   node-major, so this is exactly the order one shared heap would pop —
   one shard degenerates to the single-engine loop, and any shard count
   executes the identical event sequence.  Equal (time, rank) on two
   engines is impossible (the rank pins the node, and a node lives in
   one shard), so the scan needs no shard tiebreak. *)
let pick_engine t =
  let n = Array.length t.engines in
  if n = 1 then
    match Engine.peek t.engines.(0) with
    | None -> None
    | Some (tm, _) -> Some (tm, t.engines.(0))
  else begin
    let best = ref None in
    for s = 0 to n - 1 do
      match Engine.peek t.engines.(s) with
      | None -> ()
      | Some (tm, rk) -> (
        match !best with
        | Some (bt, br, _) when bt < tm || (bt = tm && br <= rk) -> ()
        | _ -> best := Some (tm, rk, t.engines.(s)))
    done;
    match !best with None -> None | Some (tm, _, e) -> Some (tm, e)
  end

let rec step_once_heap t ~horizon =
  match pick_engine t with
  | None -> if reseed t then step_once_heap t ~horizon else false
  | Some (tm, _) when tm >= horizon ->
    false (* a pending load-balancing point gates further execution *)
  | Some (_, e) ->
  match Engine.take e with
  | None -> if reseed t then step_once_heap t ~horizon else false
  | Some (Engine.Timer i) ->
    let tbl = t.outstanding.(i) in
    if t.nodes.(i).n_crashed || Hashtbl.length tbl = 0 then step_once_heap t ~horizon
    else begin
      let now = Engine.now e in
      let due, later =
        Hashtbl.fold
          (fun _ p (d, l) ->
            if p.p_next_at <= now then (p :: d, l) else (d, Float.min l p.p_next_at))
          tbl ([], infinity)
      in
      match due with
      | [] ->
        if later < infinity then Engine.reschedule e ~at:later (Engine.Timer i);
        step_once_heap t ~horizon
      | due ->
        t.events <- t.events + 1;
        (* hashtable fold order is unspecified; sequence numbers restore
           a deterministic processing order *)
        let due = List.sort (fun a b -> compare a.p_seq b.p_seq) due in
        List.iter (retransmit_due t i ~now) due;
        let next = Hashtbl.fold (fun _ p acc -> Float.min acc p.p_next_at) tbl infinity in
        if next < infinity then Engine.schedule e ~at:next (Engine.Timer i);
        true
    end
  | Some (Engine.Chaos i) -> (
    match t.chaos.(i) with
    | [] -> step_once_heap t ~horizon
    | (_, act) :: rest ->
      t.chaos.(i) <- rest;
      t.events <- t.events + 1;
      (match act with
      | Chaos_crash -> crash_node t i
      | Chaos_restart -> restart_node t i);
      (match rest with
      | (at, _) :: _ -> Engine.schedule e ~at (Engine.Chaos i)
      | [] -> ());
      ensure_step t i;
      true)
  | Some (Engine.Gc i) ->
    let n = t.nodes.(i) in
    (* an in-progress incremental cycle must run to completion even if
       sweeping has already pushed the heap back under the threshold *)
    if n.n_crashed || not (gc_pending t i || over_gc_threshold t i) then
      step_once_heap t ~horizon
    else begin
      do_collect t i;
      ensure_step t i;
      true
    end
  | Some (Engine.Step i) ->
    let n = t.nodes.(i) in
    if n.n_crashed || not (K.has_ready n.n_kernel) then step_once_heap t ~horizon
    else begin
      let tm = Engine.now e in
      let now = n.n_clock.Sim.Clock.now in
      if now > tm then begin
        Engine.reschedule e ~at:now (Engine.Step i);
        step_once_heap t ~horizon
      end
      else begin
        exec_step t i ~time:tm;
        (* the slice advanced the node clock; read it once for both the
           collection check and the follow-on step *)
        let at = n.n_clock.Sim.Clock.now in
        if over_gc_threshold t i then Engine.schedule e ~at (Engine.Gc i);
        if (not n.n_crashed) && K.has_ready n.n_kernel then
          Engine.schedule e ~at (Engine.Step i);
        ensure_wake t i;
        true
      end
    end
  | Some (Engine.Wake i) ->
    (* revalidate against the kernel, exactly as Step does against the
       clock: the deadline may have been consumed (signalled, migrated
       away) or superseded by an earlier one since this entry was queued *)
    let n = t.nodes.(i) in
    if n.n_crashed then step_once_heap t ~horizon
    else begin
      let k = n.n_kernel in
      match K.next_timeout k with
      | None -> step_once_heap t ~horizon
      | Some d ->
        let tm = Engine.now e in
        let eff = Float.max d n.n_clock.Sim.Clock.now in
        if eff > tm then begin
          Engine.reschedule e ~at:eff (Engine.Wake i);
          step_once_heap t ~horizon
        end
        else begin
          count_event t i;
          K.set_time_us k tm;
          ignore (K.expire_timeouts k ~now:tm : int);
          ensure_wake t i;
          ensure_step t i;
          true
        end
    end
  | Some (Engine.Deliver i) ->
    let n = t.nodes.(i) in
    (match Enet.Netsim.next_arrival_at t.net ~dst:i with
    | None -> step_once_heap t ~horizon
    | Some arrival ->
      let tm = Engine.now e in
      let eff = Float.max arrival n.n_clock.Sim.Clock.now in
      if eff > tm then begin
        Engine.reschedule e ~at:eff (Engine.Deliver i);
        step_once_heap t ~horizon
      end
      else begin
        exec_deliver t i eff;
        (match Enet.Netsim.next_arrival_at t.net ~dst:i with
        | Some a ->
          Engine.schedule e
            ~at:(Float.max a (K.time_us n.n_kernel))
            (Engine.Deliver i)
        | None -> ());
        ensure_step t i;
        ensure_wake t i;
        true
      end)

(* Fire the installed balancer and advance its schedule.  Balancing
   points partition virtual time identically under any shard count: an
   event executes before the balancer iff its (revalidated) time is
   below [balance_at] — [step_once_heap]'s horizon sequentially, the
   window horizon clamp in parallel. *)
let fire_balancer t =
  (match t.balancer with Some f -> f () | None -> ());
  t.balance_at <- t.balance_at +. t.balance_every

let set_balancer t ~every_us f =
  if every_us <= 0.0 then invalid_arg "Cluster.set_balancer: need a positive period";
  t.balancer <- Some f;
  t.balance_every <- every_us;
  t.balance_at <- every_us

let rec step_once t =
  match t.sched with
  | Heap ->
    if step_once_heap t ~horizon:t.balance_at then true
    else if t.balancer <> None && pick_engine t <> None then begin
      (* not quiescent — execution is gated at a pending balancing
         point.  Fire it here so [false] means quiescent for every
         caller, including external drivers stepping the cluster
         themselves (the fuzz harness, interactive tools). *)
      fire_balancer t;
      step_once t
    end
    else false
  | Scan -> step_once_scan t

(* ----------------------------------------------------------------------- *)
(* parallel windows (run-to-quiescence only)

   Conservative Chandy–Misra execution: the window [W, W + lookahead)
   starts at the globally earliest pending event; inside it every shard
   executes its own events concurrently, touching only its own nodes'
   kernels, clocks, search tables and Netsim receive queues.  The
   lookahead is the network latency — the soonest any send performed in
   the window can arrive — so deferring all sends to the barrier is
   unobservable in-window, and every cross-shard interaction lands in a
   later window. *)

let parallel_ok t =
  Array.length t.shards > 1
  && t.sched = Heap
  && (not t.reliable)
  && t.lookahead > 0.0
  (* the Naive conversion tier is the one whose en/decode paths touch no
     global mutable state (no plan cache, no shared buffer pool) *)
  && wire_impl_of t = Enet.Wire.Naive
  && not (Array.exists (fun n -> n.n_crashed) t.nodes)

(* Execute one shard's events inside the window [*, horizon).  The body
   mirrors [step_once_heap]'s Step/Deliver/Gc revalidation exactly;
   Timer and Chaos entries cannot exist here ([parallel_ok] excludes
   fault plans).  Each popped entry's (time, rank) becomes the merge
   key under which the event's emissions, sends and aborts are
   buffered. *)
let win_run_shard t s ~horizon =
  let sh = t.shards.(s) in
  let e = sh.sh_engine in
  let running = ref true in
  while !running do
    match Engine.peek e with
    | None -> running := false
    | Some (tm, _) when tm >= horizon -> running := false
    | Some (tm, rk) -> (
      sh.sh_key_time <- tm;
      sh.sh_key_rank <- rk;
      match Engine.take e with
      | None -> running := false
      | Some (Engine.Timer _) | Some (Engine.Chaos _) ->
        assert false (* never scheduled without a fault plan *)
      | Some (Engine.Gc i) ->
        let n = t.nodes.(i) in
        if (not n.n_crashed) && (gc_pending t i || over_gc_threshold t i)
        then begin
          do_collect t i;
          ensure_step t i
        end
      | Some (Engine.Step i) ->
        let n = t.nodes.(i) in
        if (not n.n_crashed) && K.has_ready n.n_kernel then begin
          let now = n.n_clock.Sim.Clock.now in
          if now > tm then Engine.reschedule e ~at:now (Engine.Step i)
          else begin
            exec_step t i ~time:tm;
            let at = n.n_clock.Sim.Clock.now in
            if over_gc_threshold t i then Engine.schedule e ~at (Engine.Gc i);
            if (not n.n_crashed) && K.has_ready n.n_kernel then
              Engine.schedule e ~at (Engine.Step i);
            ensure_wake t i
          end
        end
      | Some (Engine.Wake i) ->
        (* node-local, so safe inside a window; mirrors the sequential
           loop's revalidation exactly *)
        let n = t.nodes.(i) in
        if not n.n_crashed then begin
          match K.next_timeout n.n_kernel with
          | None -> ()
          | Some d ->
            let eff = Float.max d n.n_clock.Sim.Clock.now in
            if eff > tm then Engine.reschedule e ~at:eff (Engine.Wake i)
            else begin
              count_event t i;
              K.set_time_us n.n_kernel tm;
              ignore (K.expire_timeouts n.n_kernel ~now:tm : int);
              ensure_wake t i;
              ensure_step t i
            end
        end
      | Some (Engine.Deliver i) -> (
        let n = t.nodes.(i) in
        match Enet.Netsim.next_arrival_at t.net ~dst:i with
        | None -> ()
        | Some arrival ->
          let eff = Float.max arrival n.n_clock.Sim.Clock.now in
          if eff > tm then Engine.reschedule e ~at:eff (Engine.Deliver i)
          else begin
            exec_deliver t i eff;
            (match Enet.Netsim.next_arrival_at t.net ~dst:i with
            | Some a ->
              Engine.schedule e
                ~at:(Float.max a (K.time_us n.n_kernel))
                (Engine.Deliver i)
            | None -> ());
            ensure_step t i;
            ensure_wake t i
          end))
  done

(* The barrier: replay the windows' deferred effects in the canonical
   (time, rank, seq) order — first the sends through the shared medium
   (bit-identical reservation fold, sequence numbers and arrival
   times), then the buffered bus events, then the thread aborts. *)
(* Merge key subtlety: across shards, (time, rank) orders correctly —
   ranks are node-major and shards hold contiguous node ranges, so at
   equal times every lower shard's pops precede every higher shard's,
   exactly as [pick_engine] chooses.  WITHIN a shard, though, the true
   sequential order at one instant is the pop order (the emission
   sequence number), not the rank order: a handler may schedule a
   same-time event of LOWER rank — the Step handler queuing a
   collection for a zero-cost slice, say — and the engine necessarily
   pops it after its scheduler, while a rank sort would replay it
   before.  Hence the key is (time, shard, seq). *)
let barrier_flush t =
  Enet.Netsim.flush_outboxes t.net (Array.map (fun sh -> sh.sh_outbox) t.shards);
  if t.win_buffering then begin
    let all =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun s sh ->
                Array.of_list
                  (List.map (fun (tm, _rk, sq, b) -> (tm, s, sq, b)) sh.sh_buf))
              t.shards))
    in
    Array.sort
      (fun (t1, r1, s1, _) (t2, r2, s2, _) ->
        match Float.compare t1 t2 with
        | 0 -> ( match compare r1 r2 with 0 -> compare s1 s2 | c -> c)
        | c -> c)
      all;
    Array.iter
      (fun (_, _, _, b) ->
        match b with
        | B_ev ev -> E.emit t.bus ev
        | B_send d ->
          let arrives = Enet.Netsim.Outbox.arrival d.ds_entry in
          E.emit t.bus
            (E.Ev_msg_send
               { time = d.ds_time; src = d.ds_src; dst = d.ds_dst;
                 desc = d.ds_desc; bytes = d.ds_bytes; arrives });
          (* the transfer span follows its Ev_msg_send immediately, as
             on the sequential path *)
          (match d.ds_span with
          | Some (id, rid, pair) ->
            E.emit t.bus
              (E.Ev_span
                 { Obs.Span.name = "transfer"; node = d.ds_src;
                   arch_pair = pair; t_start_us = d.ds_time;
                   t_end_us = arrives; id; parent = Some rid;
                   bytes = d.ds_bytes })
          | None -> ()))
      all;
    Array.iter (fun sh -> sh.sh_buf <- []) t.shards
  end;
  let aborts =
    Array.fold_left (fun acc sh -> List.rev_append sh.sh_aborts acc) [] t.shards
  in
  (match aborts with
  | [] -> ()
  | aborts ->
    List.iter
      (fun (_, _, _, _, tid, reason) -> apply_deferred_abort t tid ~reason)
      (List.sort
         (fun (t1, _, s1, n1, _, _) (t2, _, s2, n2, _, _) ->
           match Float.compare t1 t2 with
           | 0 -> (
             (* same (time, shard, seq) key as the event replay above *)
             match compare t.owner.(n1) t.owner.(n2) with
             | 0 -> compare s1 s2
             | c -> c)
           | c -> c)
         aborts);
    Array.iter (fun sh -> sh.sh_aborts <- []) t.shards)

let now_ns () = Unix.gettimeofday () *. 1e9

let run_parallel t ~max_events =
  let base = ref 0 in
  Array.iter (fun sh -> base := !base + sh.sh_events) t.shards;
  let executed () =
    Array.fold_left (fun acc sh -> acc + sh.sh_events) (- !base) t.shards
  in
  let ev_before = Array.make (Array.length t.shards) 0 in
  let pool = Shard.Pool.create ~shards:(Array.length t.shards) in
  Fun.protect
    ~finally:(fun () ->
      t.win_active <- false;
      Shard.Pool.shutdown pool)
  @@ fun () ->
  let running = ref true in
  while !running do
    match pick_engine t with
    | None -> if not (reseed t) then running := false
    | Some (w0, _) when w0 >= t.balance_at ->
      (* everything earlier than the balancing point has executed; fire
         between windows, where no shard is running *)
      fire_balancer t
    | Some (w0, _) ->
      let horizon = Float.min (w0 +. t.lookahead) t.balance_at in
      t.win_buffering <- listening t;
      Array.iteri
        (fun s sh ->
          sh.sh_seq <- 0;
          ev_before.(s) <- sh.sh_events)
        t.shards;
      t.win_active <- true;
      let t0 = now_ns () in
      Shard.Pool.run pool (fun s ->
          let s0 = now_ns () in
          win_run_shard t s ~horizon;
          t.shards.(s).sh_win_busy_ns <- now_ns () -. s0);
      let wall = now_ns () -. t0 in
      t.win_active <- false;
      barrier_flush t;
      E.note_window t.bus ~horizon_us:t.lookahead;
      Array.iteri
        (fun s sh ->
          let sc = E.shard_counters t.bus s in
          let d_ev = sh.sh_events - ev_before.(s) in
          if d_ev > 0 then sc.E.s_windows <- sc.E.s_windows + 1;
          sc.E.s_events <- sc.E.s_events + d_ev;
          sc.E.s_busy_ns <- sc.E.s_busy_ns +. sh.sh_win_busy_ns;
          sc.E.s_stall_ns <-
            sc.E.s_stall_ns +. Float.max 0.0 (wall -. sh.sh_win_busy_ns))
        t.shards;
      if executed () > max_events then
        failwith "Cluster.run: event budget exceeded (livelock?)"
  done

let run ?(max_events = 2_000_000) t =
  if parallel_ok t then run_parallel t ~max_events
  else begin
    let budget = ref max_events in
    let running = ref true in
    while !running do
      if step_once t then begin
        decr budget;
        if !budget <= 0 then
          failwith "Cluster.run: event budget exceeded (livelock?)"
      end
      else running := false
    done
  end

(* checkpointing: quiesce first so every segment is parked at a stop *)
let checkpoint_thread t ~node tid =
  quiesce_node t node;
  let image = Mobility.Checkpoint.suspend t.nodes.(node).n_kernel ~thread:tid in
  ensure_step t node;
  image

let restore_thread t ~node image =
  Mobility.Checkpoint.restore t.nodes.(node).n_kernel image;
  ensure_step t node;
  ensure_wake t node

(* Forced eviction from outside the kernel (load balancers, tests): arm
   the trap; when the segment is already capturable the trap fires here
   and its outcalls route through the normal move machinery, otherwise
   the kernel captures it at the segment's next bus stop during a later
   scheduling slice. *)
let evict_thread t ~node ~seg_id ~dest =
  let outs = K.evict_thread t.nodes.(node).n_kernel ~seg_id ~dest_node:dest in
  List.iter (handle_outcall t ~src:node) outs;
  ensure_step t node

(* Batched migration: capture the union closure of several co-located
   roots — the objects, their attached closures, and every thread
   segment executing inside any of them — and ship it as a single
   [M_group_move] over the pooled wire path, under one root "move" span
   whose capture leg is named "group_pack" and landing leg
   "group_unpack".  Roots not resident on [node] are skipped; a batch
   that captures nothing sends nothing. *)
let group_move t ~node ~dest oids =
  if dest <> node && oids <> [] then begin
    let k = t.nodes.(node).n_kernel in
    quiesce_node t node;
    if t.spans_on then t.move_t0.(node) <- K.time_us k;
    let roots = List.filter_map (K.find_object k) oids in
    (* batch send-off under an active mark cycle: grey every captured
       root before the pack removes the group from the heap's root set *)
    (match t.gcs.(node) with
    | Some cy -> List.iter (Ert.Gc.grey_addr cy k) roots
    | None -> ());
    let payload = Mobility.Move.perform_group_move k ~roots ~dest in
    if payload.Mobility.Marshal.mp_objects <> [] then begin
      emit t ~node
        (E.Ev_group_move
           { time = K.time_us k; node; dest;
             objects = List.length payload.Mobility.Marshal.mp_objects;
             segments = List.length payload.Mobility.Marshal.mp_segments });
      send_message t ~src:node
        { Mobility.Move.snd_dest = dest;
          snd_msg = Mobility.Marshal.M_group_move payload };
      ensure_step t node
    end
  end

(* Follow forwarding-proxy hints from [from] toward [oid]: returns the
   hosting node, if one is reached, and the hops taken.  A harness-side
   observer (tests, stats) — it sends nothing and charges nothing, so
   calling it cannot perturb a trace. *)
let chain_walk t ~from oid =
  let rec go node hops visited =
    if List.mem node visited then (None, hops)
    else if
      (not t.nodes.(node).n_crashed)
      && K.find_object t.nodes.(node).n_kernel oid <> None
    then (Some node, hops)
    else
      let k = t.nodes.(node).n_kernel in
      match K.proxy_of k oid with
      | Some addr ->
        let next = K.proxy_hint k addr in
        if next = node then (None, hops)
        else go next (hops + 1) (node :: visited)
      | None -> (None, hops)
  in
  go from 0 []

let find_root_done t tid =
  let rec go s =
    if s >= Array.length t.shards then None
    else
      match Hashtbl.find_opt t.shards.(s).sh_root_done tid with
      | Some r -> Some r
      | None -> go (s + 1)
  in
  go 0

let root_done_count t =
  Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.sh_root_done) 0 t.shards

let result t tid =
  match find_root_done t tid with
  | Some r -> Some r
  | None ->
    (* fallback for results recorded before the cluster's callback was
       installed (kernels driven outside the cluster) *)
    let found = ref None in
    Array.iter
      (fun n ->
        match K.root_result n.n_kernel tid with
        | Some r -> found := Some r
        | None -> ())
      t.nodes;
    !found

let run_until_result ?(max_events = 2_000_000) t tid =
  let budget = ref max_events in
  (* probing two hash tables before every event is measurable in the hot
     loop; both tables only ever grow, so O(1) length checks gate the
     probes and the common no-news iteration touches neither *)
  let probe () =
    match find_root_done t tid with
    | Some r -> Some r
    | None ->
      if Hashtbl.mem t.failures tid then
        raise (Thread_unavailable (Hashtbl.find t.failures tid));
      None
  in
  let rec go ~done_n ~fail_n =
    let dn = root_done_count t and fn = Hashtbl.length t.failures in
    let hit = if dn <> done_n || fn <> fail_n then probe () else None in
    match hit with
    | Some r -> r
    | None ->
      if not (step_once t) then
        failwith "Cluster.run_until_result: cluster quiescent without a result";
      decr budget;
      if !budget <= 0 then failwith "Cluster.run_until_result: event budget exceeded";
      go ~done_n:dn ~fail_n:fn
  in
  go ~done_n:(-1) ~fail_n:(-1)

let global_time_us t =
  Array.fold_left (fun acc n -> Float.max acc (K.time_us n.n_kernel)) 0.0 t.nodes

let output t ~node = K.output (kernel t node)

let outputs t =
  String.concat "" (Array.to_list (Array.map (fun n -> K.output n.n_kernel) t.nodes))

let events_processed t =
  Array.fold_left (fun acc sh -> acc + sh.sh_events) t.events t.shards

let collections t =
  Array.fold_left (fun acc sh -> acc + sh.sh_collections) t.collections t.shards

(* between events every segment is parked at a bus stop, so global
   properties are well defined; [inv_last_times] carries the previous
   per-node clock observations for the monotonicity check *)
let check_invariants t =
  Fault.Invariants.check ~n_nodes:(Array.length t.nodes)
    ~kernel:(fun i -> t.nodes.(i).n_kernel)
    ~crashed:(fun i -> t.nodes.(i).n_crashed)
    ~thread_failed:(fun tid -> Hashtbl.mem t.failures tid)
    ~last_times:t.inv_last_times
