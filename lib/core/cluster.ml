module K = Ert.Kernel
module T = Ert.Thread
module CM = Mobility.Cost_model
module M = Mobility.Marshal
module E = Events

type protocol = Transport.protocol = Enhanced | Original
type location = Locate.mode = Loc_off | Loc_directory
type gc_mode = Collect.mode = Gc_stw | Gc_incremental

exception Heterogeneous_move_in_original_protocol
exception Thread_unavailable = Loop.Thread_unavailable

(* The cluster is its nodes plus four layers, one decision each: the
   transport (how a message becomes frames), location (how an unroutable
   message finds its object), collection (when a heap is collected) and
   the loop (which event runs next).  Node state is two arrays: node i's
   kernel, replaced wholesale on restart after a crash, and whether node
   i is down.  The layers read both; only the cluster writes them. *)
type t = {
  kernels : K.t array;
  down : bool array;
  net : Enet.Netsim.t;
  repo : Mobility.Code_repository.t;
  bus : E.bus;
  tr : Transport.t;
  loc : Locate.t;
  gc : Collect.t;
  loop : Loop.t;
  root_done : (T.tid, Ert.Value.t option) Hashtbl.t;  (* finished root threads *)
  failures : (T.tid, string) Hashtbl.t;  (* threads lost to node crashes *)
  quantum : int option;  (* kept to configure replacement kernels on restart *)
  opt_levels : Emc.Opt.level array;
      (* per-node code-instance selection, kept (like [quantum]) to
         configure replacement kernels on restart; mutated only by
         [set_opt_level], which the kernel refuses once code is loaded *)
  async_migration : bool;  (* refund the migration pipeline (DESIGN.md §13) *)
  mutable last_prog : Emc.Compile.program option;
  inv_last_times : float array;  (* monotonicity state for check_invariants *)
  (* --- span tracing (DESIGN.md §12); untouched until spans are on --- *)
  move_t0 : float array;  (* per-node start time of the move being captured *)
  rpc_open : (T.tid * int, string * float) Hashtbl.t array;
      (* per caller node: (thread, caller seg) -> (arch pair, t0) of the
         round trip in flight; opened at the original M_invoke send,
         closed when the M_reply is delivered back at the caller *)
}

let arch_pair t ~src ~dst = E.arch_pair (K.arch t.kernels.(src)) (K.arch t.kernels.(dst))
let enable_spans t = E.enable_spans t.bus

let attach_profile t p =
  enable_spans t;
  E.subscribe t.bus (function
    | E.Ev_span s -> Obs.Profile.add p s
    | _ -> ())

(* ----------------------------------------------------------------------- *)
(* thread abort *)

let is_crashed t i = t.down.(i)
let thread_failure t tid = Hashtbl.find_opt t.failures tid

(* Abort every live segment of a thread, on every live node: its
   continuation is gone. *)
let abort_thread t tid ~reason =
  if not (Hashtbl.mem t.failures tid) then begin
    Hashtbl.replace t.failures tid reason;
    E.emit t.bus (E.Ev_thread_lost { thread = tid; reason });
    Array.iteri
      (fun i k ->
        if not t.down.(i) then
          List.iter
            (fun (seg : T.segment) -> if seg.T.seg_thread = tid then K.retire_segment k seg)
            (K.segments k))
      t.kernels
  end

(* a message could not be delivered: the sending thread's continuation is
   lost with it; a lost location message is the location layer's *)
let rec drop_message t (msg : M.message) ~reason =
  match msg with
  | M.M_invoke { thread; _ } | M.M_reply { thread; _ } -> abort_thread t thread ~reason
  | M.M_invoke_via { inv; _ } -> drop_message t inv ~reason
  | M.M_move payload | M.M_group_move payload ->
    List.iter
      (fun (s : Mobility.Mi_frame.mi_segment) ->
        abort_thread t s.Mobility.Mi_frame.ms_thread ~reason)
      payload.M.mp_segments
  | M.M_locate _ | M.M_located _ | M.M_dir_lookup _ | M.M_dir_reply _ -> Locate.lost t.loc msg
  | M.M_move_req _ | M.M_start_process _ | M.M_dir_update _ | M.M_loc_hint _ ->
    (* no thread continuation rides on these; the protocol degrades to a
       search, a stale directory entry, or a no-op *)
    ()

(* ----------------------------------------------------------------------- *)
(* message transmission *)

let check_protocol t ~src ~dst (msg : M.message) =
  match Transport.protocol t.tr, msg with
  | Original, (M.M_move _ | M.M_group_move _)
    when not
           (Isa.Arch.equal_family (K.arch t.kernels.(src)).Isa.Arch.family
              (K.arch t.kernels.(dst)).Isa.Arch.family) ->
    (* the homogeneous system has no machine-independent format to go
       through: it works only between machines running the same object
       code (the two HP9000/300s of the paper qualify) *)
    raise Heterogeneous_move_in_original_protocol
  | (Original | Enhanced), _ -> ()

let send_message t ~src (s : Mobility.Move.send) =
  let dst = s.Mobility.Move.snd_dest and msg = s.Mobility.Move.snd_msg in
  if not (Transport.reachable t.tr dst) then
    (* a known-dead interface on the bare wire: refused outright *)
    Transport.refuse t.tr ~src ~dst msg
  else begin
    check_protocol t ~src ~dst msg;
    let k = t.kernels.(src) in
    let sp = E.spans_on t.bus in
    let root =
      match msg with
      | (M.M_move _ | M.M_group_move _) when sp ->
        (* the root move span: opened here, starting at the time the
           generating event began the capture (recorded in [move_t0] by
           the Oc_move handler or the M_move_req delivery); closed at the
           destination when the move lands *)
        let now = K.time_us k in
        let v = t.move_t0.(src) in
        t.move_t0.(src) <- Float.nan;
        let root_t0 = if Float.is_nan v then now else v in
        let root =
          Some
            { E.root_id = E.span_id t.bus src; root_t0;
              root_pair = arch_pair t ~src ~dst }
        in
        let name = match msg with M.M_group_move _ -> "group_pack" | _ -> "capture" in
        E.span_leg t.bus root ~node:src ~bytes:0 ~name ~t0:root_t0 ~t1:now;
        root
      | M.M_invoke { reply; thread; _ } when sp && reply.T.ln_node = src ->
        (* an original (non-forwarded) invocation opens the round-trip
           clock; closed when the reply lands back here *)
        Hashtbl.replace t.rpc_open.(src) (thread, reply.T.ln_seg)
          (arch_pair t ~src ~dst, K.time_us k);
        None
      | _ -> None
    in
    K.charge_us k CM.protocol_fixed_us;
    K.charge_insns k CM.protocol_send_insns;
    Transport.send t.tr ~src ~dst ~root msg
  end

let rec send_all t ~src = function
  | [] -> ()
  | s :: rest ->
    send_message t ~src s;
    send_all t ~src rest

(* Asynchronous migration (DESIGN.md §13): the capture/translate/marshal
   pipeline runs on a background mover engine, so the source's other
   threads keep the CPU while the payload is prepared.  The pipeline cost
   is still charged synchronously — the payload's wire timestamp, and
   hence its arrival, is identical to the synchronous path — and then
   refunded against the source clock, rolling it back to the instant the
   capture began.  The "overlap" span records the refunded interval. *)
let credit_overlap t ~src ~dest ~since =
  let t_end = K.time_us t.kernels.(src) in
  let credit = t_end -. since in
  if t.async_migration && credit > 0.0 then begin
    K.credit_us t.kernels.(src) credit;
    if E.spans_on t.bus then
      E.emit_span t.bus ~node:src ~pair:(arch_pair t ~src ~dst:dest) ~name:"overlap"
        ~t0:(t_end -. credit) ~t1:t_end ()
  end

(* under preemptive scheduling, segments may sit between bus stops; run
   them forward to well-defined states before any migration capture *)
let rec quiesce_node t i =
  let k = t.kernels.(i) in
  if K.quantum k <> None then
    List.iter
      (fun seg ->
        if not (K.at_stop k seg) then
          List.iter (handle_outcall t ~src:i) (K.advance_to_stop k seg))
      (K.segments k)

and handle_outcall t ~src (oc : K.outcall) =
  let k = t.kernels.(src) in
  match oc with
  | K.Oc_invoke { seg; target_oid; hint_node; callee_class; callee_method; args; stop_id = _ } ->
    K.charge_insns k CM.invoke_dispatch_insns;
    send_all t ~src
      (Mobility.Rpc.initiate_invoke ~k ~target_oid ~hint_node ~callee_class ~callee_method
         ~args ~caller_seg:seg.T.seg_id ~thread:seg.T.seg_thread)
  | K.Oc_move { seg; obj_addr; dest_node } ->
    let n = Array.length t.kernels in
    if dest_node < 0 || dest_node >= n then
      raise
        (K.Runtime_error
           (Printf.sprintf "node %d, thread %d: move to node %d, outside the %d-node cluster"
              src seg.T.seg_thread dest_node n));
    E.emit t.bus
      (E.Ev_move_start
         { time = K.time_us k; node = src; obj = K.oid_at k obj_addr; dest = dest_node });
    if E.spans_on t.bus then t.move_t0.(src) <- K.time_us k;
    quiesce_node t src;
    Collect.grey_segment t.gc src seg;
    Collect.grey_addr t.gc src obj_addr;
    let tq1 = K.time_us k in
    (* the pipeline's virtual cost (protocol, translate, conversion) is
       charged by [send_message]: dispatch here so the overlap credit
       sees the whole capture-to-wire interval *)
    send_all t ~src (Mobility.Move.initiate ~k ~mover:seg ~obj_addr ~dest:dest_node);
    credit_overlap t ~src ~dest:dest_node ~since:tq1
  | K.Oc_evict { seg; dest_node; armed_us } ->
    E.emit t.bus
      (E.Ev_evict { time = K.time_us k; node = src; seg_id = seg.T.seg_id; dest = dest_node });
    if E.spans_on t.bus then t.move_t0.(src) <- K.time_us k;
    quiesce_node t src;
    Collect.grey_segment t.gc src seg;
    let tq1 = K.time_us k in
    send_all t ~src (Mobility.Move.initiate_evict ~k ~seg ~dest:dest_node);
    let t_cap1 = K.time_us k in
    (* the eviction span covers trap-arm to wire-out (the victim may have
       run to its bus stop in between); its children (capture/translate/
       marshal/transfer…) hang off the move root opened by
       [send_message] *)
    if E.spans_on t.bus then
      E.emit_span t.bus ~node:src ~pair:(arch_pair t ~src ~dst:dest_node) ~name:"evict"
        ~t0:(Float.min armed_us t_cap1) ~t1:t_cap1 ();
    credit_overlap t ~src ~dest:dest_node ~since:tq1
  | K.Oc_return { link; value; thread } ->
    if link.T.ln_node = src then begin
      (* same-node segment chain: deliver directly *)
      match K.find_segment k link.T.ln_seg with
      | Some seg -> K.deliver_result k seg value
      | None ->
        send_all t ~src (Mobility.Rpc.handle_reply ~k ~to_seg:link.T.ln_seg ~value ~thread)
    end
    else send_message t ~src (Mobility.Rpc.initiate_return ~link ~value ~thread)
  | K.Oc_start_process { target_oid; hint_node } ->
    let dest =
      if hint_node = src then Option.value (Ert.Oid.creator_node target_oid) ~default:0
      else hint_node
    in
    send_message t ~src
      { Mobility.Move.snd_dest = dest;
        snd_msg = M.M_start_process { obj = target_oid; forwards = 0 } }

(* ----------------------------------------------------------------------- *)
(* delivery *)

(* an invoke, possibly wrapped in its hop trail, at [dst] *)
let deliver_invoke t ~dst msg =
  let k = t.kernels.(dst) in
  (* the hop trail: empty for a first-hop invoke, the nodes already
     traversed for a via-wrapped one (directory mode only) *)
  let via, inv =
    match msg with
    | M.M_invoke_via { via; inv } -> (via, inv)
    | inv -> ([], inv)
  in
  match inv with
  | M.M_invoke { target; callee_class; callee_method; args; reply; thread; forwards } -> (
    (* under a fault plan, a message of an already-aborted thread can
       still arrive (its abort raced a copy in flight); resurrecting the
       continuation would violate the no-orphans invariant *)
    if Transport.enveloped t.tr && Hashtbl.mem t.failures thread then []
    else begin
      K.charge_insns k CM.invoke_dispatch_insns;
      Mobility.Rpc.handle_invoke ~k ~target ~callee_class ~callee_method ~args ~reply ~thread
        ~forwards
      |> Locate.route t.loc ~node:dst ~via ~caller:reply.T.ln_node target
    end)
  | _ ->
    (* an M_invoke_via always wraps an M_invoke (see marshal.mli) *)
    assert false

(* a move or group move landing at [dst]; [tag] is the sender's root
   move span, when tracing *)
let land_move t ~dst ~src ~tag (msg : M.message) payload =
  let k = t.kernels.(dst) in
  let t_rel0 = if tag <> None then K.time_us k else 0.0 in
  let mstats = Mobility.Move.apply_move k payload in
  K.charge_insns k (mstats.Mobility.Move.ap_frames * CM.relocation_insns_per_frame);
  (match tag with
  | Some (rn, rs, rt0) ->
    let rid = { Obs.Span.id_node = rn; id_seq = rs } in
    let pair = arch_pair t ~src ~dst in
    let t_end = K.time_us k in
    (* a group move reuses the whole single-move landing path; only the
       span name marks the batched unpack *)
    let name = match msg with M.M_group_move _ -> "group_unpack" | _ -> "relocate" in
    E.emit_span t.bus ~node:dst ~parent:rid ~pair ~name ~t0:t_rel0 ~t1:t_end ();
    (* the root span, closed where the move lands; its id was allocated
       at the source and rode the message tag *)
    E.emit t.bus
      (E.Ev_span
         { Obs.Span.name = "move"; node = dst; arch_pair = pair; t_start_us = rt0;
           t_end_us = t_end; id = rid; parent = None; bytes = 0 })
  | None -> ());
  E.emit t.bus
    (E.Ev_move_finish
       { time = K.time_us k; node = dst; objects = mstats.Mobility.Move.ap_objects;
         segments = mstats.Mobility.Move.ap_segments; frames = mstats.Mobility.Move.ap_frames });
  if mstats.Mobility.Move.ap_bridged > 0 then
    E.emit t.bus
      (E.Ev_bridge
         { time = K.time_us k; node = dst; count = mstats.Mobility.Move.ap_bridged;
           src_level = mstats.Mobility.Move.ap_src_opt;
           dst_level = Emc.Opt.to_int (K.opt_level k) });
  (* a move payload can land after its thread was reported lost (the
     abort raced a copy in flight); reap the resurrected segments so the
     dead continuation cannot run *)
  if Transport.enveloped t.tr && mstats.Mobility.Move.ap_segments > 0 then
    List.iter
      (fun (seg : T.segment) ->
        if seg.T.seg_status <> T.Dead && Hashtbl.mem t.failures seg.T.seg_thread then
          K.retire_segment k seg)
      (K.segments k);
  Locate.publish t.loc ~dst payload

let deliver t ~dst (m : Enet.Netsim.message) payload =
  let k = t.kernels.(dst) in
  let src = m.Enet.Netsim.msg_src in
  K.set_time_us k m.Enet.Netsim.msg_arrives_at;
  let sp = E.spans_on t.bus in
  (* the sender's move-span tag (root id + start time), if this message
     carries a move and tracing is on *)
  let tag = if sp then m.Enet.Netsim.msg_span else None in
  let t_arr = if sp then K.time_us k else 0.0 in
  K.charge_us k CM.protocol_fixed_us;
  K.charge_insns k CM.protocol_recv_insns;
  let msg = Transport.decode t.tr ~src ~dst payload in
  let t_unm1 = if tag <> None then K.time_us k else 0.0 in
  Transport.translate t.tr ~src ~dst msg;
  (match tag with
  | Some (rn, rs, _) ->
    let parent = { Obs.Span.id_node = rn; id_seq = rs } in
    let pair = arch_pair t ~src ~dst in
    E.emit_span t.bus ~node:dst ~parent ~pair ~name:"unmarshal" ~t0:t_arr ~t1:t_unm1 ();
    E.emit_span t.bus ~node:dst ~parent ~pair ~name:"rebuild" ~t0:t_unm1 ~t1:(K.time_us k) ()
  | None -> ());
  Transport.delivered t.tr ~dst msg;
  match msg with
  | M.M_invoke _ | M.M_invoke_via _ -> send_all t ~src:dst (deliver_invoke t ~dst msg)
  | M.M_reply { to_seg; value; thread } ->
    (* close the round-trip clock opened when the original M_invoke left
       this node *)
    (if sp then
       match Hashtbl.find_opt t.rpc_open.(dst) (thread, to_seg) with
       | Some (pair0, t0) ->
         Hashtbl.remove t.rpc_open.(dst) (thread, to_seg);
         E.emit_span t.bus ~node:dst ~pair:pair0 ~name:"rpc" ~t0 ~t1:(K.time_us k) ()
       | None -> ());
    if not (Transport.enveloped t.tr && Hashtbl.mem t.failures thread) then
      send_all t ~src:dst (Mobility.Rpc.handle_reply ~k ~to_seg ~value ~thread)
  | M.M_move_req { obj; dest; forwards } ->
    (* a remote-initiated move: the capture clock starts when the request
       reaches the object's host (this node) *)
    if sp then t.move_t0.(dst) <- K.time_us k;
    quiesce_node t dst;
    send_all t ~src:dst (Mobility.Move.handle_move_req ~k ~obj ~dest ~forwards)
  | M.M_move payload | M.M_group_move payload -> land_move t ~dst ~src ~tag msg payload
  | M.M_start_process { obj; forwards } -> (
    match K.find_object k obj with
    | Some addr -> ignore (K.start_process_if_any k ~target_addr:addr)
    | None -> (
      let msg = M.M_start_process { obj; forwards = forwards + 1 } in
      let hop =
        if forwards >= 4 then None
        else Option.map (fun addr -> K.proxy_hint k addr) (K.proxy_of k obj)
      in
      match hop with
      | Some node when node <> dst ->
        send_message t ~src:dst { Mobility.Move.snd_dest = node; snd_msg = msg }
      | Some _ | None -> Locate.start_search t.loc ~asker:dst obj msg))
  | M.M_locate _ | M.M_located _ | M.M_dir_update _ | M.M_dir_lookup _ | M.M_dir_reply _
  | M.M_loc_hint _ ->
    Locate.deliver t.loc ~dst ~src msg

(* ----------------------------------------------------------------------- *)
(* node crashes and restarts *)

(* A kernel for [node], wired to the repository's per-node caches and to
   the cluster's root-result table.  [create] boots every node with it,
   and [restart_node] each replacement, on the dead kernel's clock. *)
let boot ~repo ~quantum ~level ~results ?clock node arch =
  let k = K.create ?clock ~node_id:node ~arch () in
  K.set_on_code_load k (fun () ->
      Mobility.Code_repository.record_fetch repo ~node;
      K.charge_insns k CM.code_fetch_insns);
  K.set_quantum k quantum;
  K.set_dispatch_cache k (Mobility.Code_repository.dispatch_cache repo ~node);
  K.set_bridge_cache k (Mobility.Code_repository.bridge_cache repo ~node);
  K.set_opt_level k level;
  K.set_on_root_result k (fun ~thread r -> Hashtbl.replace results thread r);
  k

let crash_node t i =
  if not t.down.(i) then begin
    E.emit t.bus (E.Ev_crash { node = i });
    Collect.discard t.gc i;
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
        (K.segments t.kernels.(i))
      |> List.sort_uniq compare
    in
    t.down.(i) <- true;
    let reason = Printf.sprintf "node %d crashed" i in
    List.iter (fun tid -> abort_thread t tid ~reason) lost_threads;
    Locate.crash_searches t.loc i;
    Transport.crash t.tr i;
    Locate.crash_shard t.loc i
  end

(* Reboot a crashed node: a fresh, amnesiac kernel — no objects, no
   segments, no transport state — on the same (shared, monotonic) clock,
   with the program reloaded so arriving invocations can at least build
   proxies and forward.  Everything the node held before the crash stays
   lost; that is the fail-stop model. *)
let restart_node t i =
  if t.down.(i) then begin
    let dead = t.kernels.(i) in
    let k =
      boot ~repo:t.repo ~quantum:t.quantum ~level:t.opt_levels.(i) ~results:t.root_done
        ~clock:(K.clock dead) i (K.arch dead)
    in
    (* serial counters come from stable storage: a rebooted node must not
       re-mint an OID its previous incarnation issued, because copies of
       those objects may have migrated away and survived the crash *)
    K.inherit_serials k (K.serials dead);
    (* bridge fragments address the dead kernel's text, so they are
       cleared with the incarnation; the cache object (and its hit/miss
       history) lives in the repository and survives *)
    Ert.Bridge.clear (Mobility.Code_repository.bridge_cache t.repo ~node:i);
    Option.iter (K.load_program k) t.last_prog;
    t.kernels.(i) <- k;
    t.down.(i) <- false;
    Transport.restart t.tr i;
    Locate.restart t.loc i;
    Collect.restart t.gc i;
    E.emit t.bus (E.Ev_restart { node = i })
  end

(* ----------------------------------------------------------------------- *)
(* construction *)

let create ?(protocol = Enhanced) ?(wire_impl = Enet.Wire.Naive) ?quantum ?gc_threshold
    ?(gc_mode = Gc_stw) ?(gc_budget = 4096) ?(faults = Fault.Plan.empty)
    ?(async_migration = false) ?(location = Loc_off) ~archs () =
  let n = List.length archs in
  if n = 0 then invalid_arg "Cluster.create: archs is empty";
  if gc_budget < 1 then invalid_arg "Cluster.create: gc_budget must be positive";
  Result.iter_error
    (fun e -> invalid_arg ("Cluster.create: fault plan: " ^ e))
    (Fault.Plan.check_nodes faults ~n_nodes:n);
  let net = Enet.Netsim.create ~n_nodes:n () in
  let repo = Mobility.Code_repository.create ~n_nodes:n () in
  let results = Hashtbl.create 4 and failures = Hashtbl.create 4 in
  let kernels =
    Array.of_list
      (List.mapi (fun i arch -> boot ~repo ~quantum ~level:Emc.Opt.O0 ~results i arch) archs)
  in
  let down = Array.make n false in
  let engine = Engine.create ~n_nodes:n () in
  let bus = E.create_bus ~n_nodes:n in
  (* The layers call back into the cluster — a loss aborts the thread
     riding on the message, a search sends its probes, a crash window
     crashes a node — through functions fixed here, once.  The cluster is
     built after its layers, so those functions reach it through [self]. *)
  let rec self =
    lazy
      (let tr =
         Transport.create ~protocol ~wire_impl ~faults ~net ~engine ~bus ~kernels ~down ~lost
           ~deliver:deliver_to
       in
       let gc =
         Collect.create ~mode:gc_mode ~threshold:gc_threshold ~budget:gc_budget ~kernels
           ~engine ~bus ~quiesce
       in
       { kernels; down; net; repo; bus; tr; gc;
         loc = Locate.create ~mode:location ~kernels ~down ~bus ~transport:tr ~send ~drop:lost;
         loop =
           Loop.create ~engine ~net ~bus ~kernels ~down ~transport:tr
             ~collect:gc ~faults ~results ~failures ~outcall ~crash ~restart;
         root_done = results; failures; quantum;
         opt_levels = Array.make n Emc.Opt.O0;
         async_migration; last_prog = None;
         inv_last_times = Array.make n 0.0;
         move_t0 = Array.make n Float.nan;
         rpc_open = Array.init n (fun _ -> Hashtbl.create 8) })
  and lost msg ~reason = drop_message (Lazy.force self) msg ~reason
  and deliver_to ~dst m payload = deliver (Lazy.force self) ~dst m payload
  and send ~src s = send_message (Lazy.force self) ~src s
  and quiesce i = quiesce_node (Lazy.force self) i
  and outcall ~src oc = handle_outcall (Lazy.force self) ~src oc
  and crash i = crash_node (Lazy.force self) i
  and restart i = restart_node (Lazy.force self) i in
  Lazy.force self

(* ----------------------------------------------------------------------- *)
(* the public API *)

let protocol t = Transport.protocol t.tr
let gc_mode t = Collect.mode t.gc
let gc_in_progress t i = Collect.in_progress t.gc i
let location t = Locate.mode t.loc
let directory_home t oid = Locate.home t.loc oid
let directory_entry t oid = Locate.entry t.loc oid
let directory_stats t = Locate.stats t.loc
let n_nodes t = Array.length t.kernels
let kernel t i = t.kernels.(i)
let kernels t = Array.copy t.kernels
let repository t = t.repo
let network t = t.net
let engine t = Loop.engine t.loop
let engines t = [| engine t |]
let set_trace t f = E.subscribe t.bus (fun ev -> Option.iter f (E.legacy_string ev))
let bus t = t.bus
let subscribe_events t f = E.subscribe t.bus f
let node_counters t i = E.counters t.bus i
let total_counter t f = E.total t.bus f

let load_program t prog =
  t.last_prog <- Some prog;  (* replayed into replacement kernels on restart *)
  Array.iter (fun k -> K.load_program k prog) t.kernels

let compile_and_load ?levels t ~name source =
  let archs =
    List.sort_uniq
      (fun a b -> String.compare a.Isa.Arch.id b.Isa.Arch.id)
      (Array.to_list (Array.map K.arch t.kernels))
  in
  (* with no explicit instance list, compile whatever the nodes are
     configured to run: -O0 first (the primary, so byte-for-byte
     compatible with the single-instance path), then any other per-node
     levels.  When every node runs -O0 this is the single-instance
     call. *)
  let levels =
    match levels with
    | Some _ -> levels
    | None ->
      if Array.for_all (Emc.Opt.equal Emc.Opt.O0) t.opt_levels then None
      else Some (Emc.Opt.O0 :: Array.to_list t.opt_levels)
  in
  let prog = Emc.Compile.compile_exn ?levels ~name ~archs source in
  load_program t prog;
  prog

let set_opt_level t ~node level =
  if node < 0 || node >= Array.length t.kernels then
    invalid_arg "Cluster.set_opt_level: node id out of range";
  K.set_opt_level t.kernels.(node) level;  (* refuses if code is loaded *)
  t.opt_levels.(node) <- level

let bridge_stats t = Mobility.Code_repository.bridge_stats t.repo

let create_object t ~node ~class_name =
  let k = t.kernels.(node) in
  match Emc.Compile.find_class (K.program k) class_name with
  | None -> invalid_arg (Printf.sprintf "Cluster.create_object: no class %s" class_name)
  | Some cc ->
    let addr = K.create_object k ~class_index:cc.Emc.Compile.cc_index in
    ignore (K.start_process_if_any k ~target_addr:addr);
    let oid = K.oid_at k addr in
    (* harness-held references pin their objects against automatic GC *)
    Collect.pin t.gc oid;
    (* a silent host-side birth registration: no traffic and no events,
       so the directory-off byte stream is untouched and a fresh cluster
       starts with an authoritative location map *)
    Locate.register t.loc oid ~node ~at:(K.time_us k);
    Loop.ensure_step t.loop node;
    oid

let where_is t oid =
  let found = ref None in
  Array.iteri
    (fun i k ->
      if !found = None && (not t.down.(i)) && K.find_object k oid <> None then found := Some i)
    t.kernels;
  !found

let spawn t ~node ~target ~op ~args =
  let k = t.kernels.(node) in
  match K.find_object k target with
  | None ->
    invalid_arg
      (Printf.sprintf "Cluster.spawn: %s is not resident on node %d" (Ert.Oid.to_string target)
         node)
  | Some addr ->
    let tid = K.spawn_root k ~target_addr:addr ~method_name:op ~args in
    Loop.ensure_step t.loop node;
    tid

let step_once t = Loop.step_once t.loop
let run ?max_events t = Loop.run ?max_events t.loop
let run_until_result ?max_events t tid = Loop.run_until_result ?max_events t.loop tid
let set_balancer t ~every_us f = Loop.set_balancer t.loop ~every_us f

(* every kernel reports its root results to [root_done] from boot on *)
let result t tid = Hashtbl.find_opt t.root_done tid

(* checkpointing: quiesce first so every segment is parked at a stop *)
let checkpoint_thread t ~node tid =
  quiesce_node t node;
  let image = Mobility.Checkpoint.suspend t.kernels.(node) ~thread:tid in
  Loop.ensure_step t.loop node;
  image

let restore_thread t ~node image =
  Mobility.Checkpoint.restore t.kernels.(node) image;
  Loop.ensure_step t.loop node;
  Loop.ensure_wake t.loop node

(* Forced eviction from outside the kernel (load balancers, tests): arm
   the trap; when the segment is already capturable the trap fires here
   and its outcalls route through the normal move machinery, otherwise
   the kernel captures it at the segment's next bus stop during a later
   scheduling slice. *)
(* a harness move to a node outside the cluster is refused before anything
   is captured *)
let check_dest t fn dest =
  let n = Array.length t.kernels in
  if dest < 0 || dest >= n then
    invalid_arg (Printf.sprintf "Cluster.%s: node %d is outside the %d-node cluster" fn dest n)

let evict_thread t ~node ~seg_id ~dest =
  check_dest t "evict_thread" dest;
  K.evict_thread t.kernels.(node) ~seg_id ~dest_node:dest
  |> List.iter (handle_outcall t ~src:node);
  Loop.ensure_step t.loop node

(* Batched migration: capture the union closure of several co-located
   roots — the objects, their attached closures, and every thread
   segment executing inside any of them — and ship it as a single
   [M_group_move] over the wire, under one root "move" span
   whose capture leg is named "group_pack" and landing leg
   "group_unpack".  Roots not resident on [node] are skipped; a batch
   that captures nothing sends nothing. *)
let group_move t ~node ~dest oids =
  check_dest t "group_move" dest;
  if dest <> node && oids <> [] then begin
    let k = t.kernels.(node) in
    quiesce_node t node;
    if E.spans_on t.bus then t.move_t0.(node) <- K.time_us k;
    let roots = List.filter_map (K.find_object k) oids in
    (* batch send-off under an active mark cycle: grey every captured
       root before the pack removes the group from the heap's root set *)
    List.iter (Collect.grey_addr t.gc node) roots;
    let payload = Mobility.Move.perform_group_move k ~roots ~dest in
    if payload.M.mp_objects <> [] then begin
      E.emit t.bus
        (E.Ev_group_move
           { time = K.time_us k; node; dest; objects = List.length payload.M.mp_objects;
             segments = List.length payload.M.mp_segments });
      send_message t ~src:node
        { Mobility.Move.snd_dest = dest; snd_msg = M.M_group_move payload };
      Loop.ensure_step t.loop node
    end
  end

let chain_walk t ~from oid = Locate.chain_walk t.loc ~from oid

let global_time_us t = Array.fold_left (fun acc k -> Float.max acc (K.time_us k)) 0.0 t.kernels
let output t ~node = K.output t.kernels.(node)
let outputs t = String.concat "" (Array.to_list (Array.map K.output t.kernels))
let events_processed t = Loop.events t.loop

(* between events every segment is parked at a bus stop, so global
   properties are well defined; [inv_last_times] carries the previous
   per-node clock observations for the monotonicity check *)
let check_invariants t =
  Fault.Invariants.check ~n_nodes:(Array.length t.kernels)
    ~kernel:(fun i -> t.kernels.(i))
    ~crashed:(fun i -> t.down.(i))
    ~thread_failed:(fun tid -> Hashtbl.mem t.failures tid)
    ~last_times:t.inv_last_times
