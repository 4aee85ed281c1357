type t =
  | Ev_step of { node : int; time : float }
  | Ev_msg_send of {
      time : float;
      src : int;
      dst : int;
      desc : string;
      bytes : int;
      arrives : float;
    }
  | Ev_msg_deliver of { time : float; node : int; desc : string }
  | Ev_msg_lost of { src : int; dst : int; desc : string }
  | Ev_msg_drop of { node : int; desc : string }
  | Ev_move_start of { time : float; node : int; obj : Ert.Oid.t; dest : int }
  | Ev_evict of { time : float; node : int; seg_id : int; dest : int }
  | Ev_move_finish of {
      time : float;
      node : int;
      objects : int;
      segments : int;
      frames : int;
    }
  | Ev_conversion of { node : int; calls : int; bytes : int }
  | Ev_gc of { time : float; node : int; swept : int; live : int; bytes_freed : int }
  | Ev_gc_phase of {
      time : float;
      node : int;
      phase : string;
      scanned : int;
      pause_us : float;
    }
  | Ev_crash of { node : int }
  | Ev_restart of { node : int }
  | Ev_thread_lost of { thread : Ert.Thread.tid; reason : string }
  | Ev_search_start of { node : int; obj : Ert.Oid.t; probes : int }
  | Ev_search_found of { obj : Ert.Oid.t; node : int }
  | Ev_search_failed of { obj : Ert.Oid.t }
  | Ev_fault of { time : float; src : int; dst : int; kind : string }
  | Ev_msg_dup of { node : int; src : int; seq : int }
  | Ev_retransmit of { node : int; dst : int; seq : int; attempt : int }
  | Ev_ack of { node : int; seq : int }
  | Ev_span of Obs.Span.t
  (* location-subsystem events: none of these fire in the directory-off
     configuration, so the legacy trace stays byte-identical *)
  | Ev_dir_update of { node : int; obj : Ert.Oid.t; loc : int; applied : bool }
  | Ev_dir_lookup of { node : int; obj : Ert.Oid.t; found : bool }
  | Ev_locate of { node : int; obj : Ert.Oid.t; hops : int }
  | Ev_collapse of { node : int; obj : Ert.Oid.t; loc : int }
  | Ev_group_move of {
      time : float;
      node : int;
      dest : int;
      objects : int;
      segments : int;
    }
  | Ev_blit of { node : int; dest : int; skipped : bool }
      (** a move payload under the [blit] codec tier: [skipped = true]
          when the pair had the same layout and code instance and the
          translate/rebuild passes were skipped, [false] when the pair
          fell back to the per-datum path.  Fires only under [--codec
          blit], so the legacy trace is unaffected. *)
  | Ev_bridge of {
      time : float;
      node : int;
      count : int;  (** arriving threads that landed via a bridge fragment *)
      src_level : int;
      dst_level : int;
    }
      (** a move landed threads at bus stops this node's code instance
          elided, so they resume through compiled bridge fragments.
          Fires only when nodes run differently-optimized instances, so
          the legacy trace is unaffected. *)

(* The exact line the seed's [(string -> unit)] trace hook printed for
   this event, if it printed one.  Events the seed had no line for
   (steps, move completion, conversion accounting) map to [None], so a
   legacy subscriber sees byte-identical output.  Fault-subsystem events
   (restarts, injected faults, dups, retransmits, acks) never fire
   without a fault plan, so giving them lines keeps the no-fault trace
   byte-identical while making [--trace] useful under injection. *)
let legacy_string = function
  | Ev_step _ | Ev_move_finish _ | Ev_conversion _ | Ev_span _ | Ev_blit _
  | Ev_bridge _ | Ev_gc_phase _ -> None
  | Ev_msg_send { time; src; dst; desc; bytes; arrives } ->
    Some
      (Printf.sprintf "t=%.0fus node %d -> node %d: %s (%d bytes, arrives %.0fus)"
         time src dst desc bytes arrives)
  | Ev_msg_deliver { time; node; desc } ->
    Some (Printf.sprintf "t=%.0fus node %d receives: %s" time node desc)
  | Ev_msg_lost { src; dst; desc } ->
    Some (Printf.sprintf "node %d -> node %d: %s LOST (destination down)" src dst desc)
  | Ev_msg_drop { node; desc } ->
    Some (Printf.sprintf "node %d (down) loses: %s" node desc)
  | Ev_move_start { time; node; obj; dest } ->
    Some
      (Printf.sprintf "t=%.0fus node %d: move %s to node %d" time node
         (Ert.Oid.to_string obj) dest)
  | Ev_evict { time; node; seg_id; dest } ->
    Some
      (Printf.sprintf "t=%.0fus node %d: evict segment %d to node %d" time node
         seg_id dest)
  | Ev_gc { time; node; swept; bytes_freed; live = _ } ->
    Some
      (Printf.sprintf "t=%.0fus node %d: gc swept %d block(s), %d bytes" time node
         swept bytes_freed)
  | Ev_crash { node } -> Some (Printf.sprintf "node %d crashes" node)
  | Ev_restart { node } -> Some (Printf.sprintf "node %d restarts (empty)" node)
  | Ev_fault { time; src; dst; kind } ->
    Some (Printf.sprintf "t=%.0fus wire fault: node %d -> node %d %s" time src dst kind)
  | Ev_msg_dup { node; src; seq } ->
    Some (Printf.sprintf "node %d suppresses duplicate #%d from node %d" node seq src)
  | Ev_retransmit { node; dst; seq; attempt } ->
    Some
      (Printf.sprintf "node %d retransmits #%d to node %d (attempt %d)" node seq dst
         attempt)
  | Ev_ack { node; seq } -> Some (Printf.sprintf "node %d acked #%d" node seq)
  | Ev_thread_lost { thread; reason } ->
    Some (Printf.sprintf "thread %d unavailable: %s" thread reason)
  | Ev_search_start { node; obj; probes } ->
    Some
      (Printf.sprintf "node %d searches for %s (%d probes)" node
         (Ert.Oid.to_string obj) probes)
  | Ev_search_found { obj; node } ->
    Some
      (Printf.sprintf "search for %s: found on node %d" (Ert.Oid.to_string obj) node)
  | Ev_search_failed { obj } ->
    Some (Printf.sprintf "search for %s: not found anywhere" (Ert.Oid.to_string obj))
  (* location-directory events fire only when a location mode is enabled,
     so printing them cannot perturb a legacy (directory-off) trace *)
  | Ev_dir_update { node; obj; loc; applied } ->
    Some
      (Printf.sprintf "node %d directory: %s now at node %d%s" node
         (Ert.Oid.to_string obj) loc
         (if applied then "" else " (stale, dropped)"))
  | Ev_dir_lookup { node; obj; found } ->
    Some
      (Printf.sprintf "node %d directory: lookup %s -> %s" node
         (Ert.Oid.to_string obj)
         (if found then "hit" else "miss"))
  | Ev_locate { node; obj; hops } ->
    Some
      (Printf.sprintf "node %d located %s after %d hop(s)" node
         (Ert.Oid.to_string obj) hops)
  | Ev_collapse { node; obj; loc } ->
    Some
      (Printf.sprintf "node %d collapses chain for %s -> node %d" node
         (Ert.Oid.to_string obj) loc)
  | Ev_group_move { time; node; dest; objects; segments } ->
    Some
      (Printf.sprintf
         "t=%.0fus node %d: group move of %d object(s), %d segment(s) to node %d"
         time node objects segments dest)

let to_string ev =
  match ev with
  | Ev_step { node; time } -> Printf.sprintf "step node=%d t=%.0fus" node time
  | Ev_move_finish { time; node; objects; segments; frames } ->
    Printf.sprintf
      "move-finish node=%d t=%.0fus objects=%d segments=%d frames=%d" node time
      objects segments frames
  | Ev_conversion { node; calls; bytes } ->
    Printf.sprintf "conversion node=%d calls=%d bytes=%d" node calls bytes
  | Ev_span s -> Obs.Span.to_string s
  | Ev_blit { node; dest; skipped } ->
    Printf.sprintf "blit node=%d dest=%d %s" node dest
      (if skipped then "skip" else "fallback")
  | Ev_bridge { time; node; count; src_level; dst_level } ->
    Printf.sprintf "bridge node=%d t=%.0fus threads=%d O%d->O%d" node time count
      src_level dst_level
  | Ev_gc_phase { time; node; phase; scanned; pause_us } ->
    Printf.sprintf "gc-phase node=%d t=%.0fus %s scanned=%d pause=%.2fus" node time
      phase scanned pause_us
  | _ -> ( match legacy_string ev with Some s -> s | None -> assert false)

type counters = {
  mutable c_steps : int;
  mutable c_sent : int;
  mutable c_delivered : int;
  mutable c_lost : int;
  mutable c_moves_out : int;
  mutable c_moves_in : int;
  mutable c_evictions : int;
  mutable c_conv_calls : int;
  mutable c_conv_bytes : int;
  mutable c_collections : int;
  mutable c_gc_bytes_freed : int;
  mutable c_gc_increments : int;
  mutable c_searches : int;
  mutable c_faults : int;
  mutable c_dups_suppressed : int;
  mutable c_retransmits : int;
  mutable c_acks : int;
  mutable c_plan_compiles : int;  (* no longer incremented *)
  mutable c_plan_hits : int;  (* no longer incremented *)
  mutable c_pool_hits : int;  (* no longer incremented *)
  mutable c_pool_misses : int;  (* no longer incremented *)
  mutable c_copies_saved : int;  (* no longer incremented *)
  mutable c_dir_updates : int;
  mutable c_dir_lookups : int;
  mutable c_locates : int;  (* invokes that found their target *)
  mutable c_locate_hops : int;  (* forwarding hops those invokes took *)
  mutable c_collapses : int;  (* proxy chains rewritten by a location hint *)
  mutable c_group_moves : int;
  mutable c_group_objects : int;  (* objects shipped inside group transfers *)
  mutable c_blit_skips : int;
      (* same-layout moves: translate/rebuild skipped *)
  mutable c_blit_fallbacks : int;  (* blit-tier moves that took the per-datum path *)
  mutable c_bridged : int;
      (* arriving threads that landed through a compiled bridge fragment *)
}

let fresh_counters () =
  {
    c_steps = 0;
    c_sent = 0;
    c_delivered = 0;
    c_lost = 0;
    c_moves_out = 0;
    c_moves_in = 0;
    c_evictions = 0;
    c_conv_calls = 0;
    c_conv_bytes = 0;
    c_collections = 0;
    c_gc_bytes_freed = 0;
    c_gc_increments = 0;
    c_searches = 0;
    c_faults = 0;
    c_dups_suppressed = 0;
    c_retransmits = 0;
    c_acks = 0;
    c_plan_compiles = 0;
    c_plan_hits = 0;
    c_pool_hits = 0;
    c_pool_misses = 0;
    c_copies_saved = 0;
    c_dir_updates = 0;
    c_dir_lookups = 0;
    c_locates = 0;
    c_locate_hops = 0;
    c_collapses = 0;
    c_group_moves = 0;
    c_group_objects = 0;
    c_blit_skips = 0;
    c_blit_fallbacks = 0;
    c_bridged = 0;
  }

type bus = {
  node_counters : counters array;
  mutable subscribers : (t -> unit) list;
  mutable spans_on : bool;
  span_seq : int array;  (* per-node span id allocator *)
}

let create_bus ~n_nodes =
  { node_counters = Array.init n_nodes (fun _ -> fresh_counters ()); subscribers = [];
    spans_on = false; span_seq = Array.make n_nodes 0 }

let subscribe bus f = bus.subscribers <- bus.subscribers @ [ f ]
let has_subscribers bus = bus.subscribers <> []

type msg_count =
  | Msg_sent
  | Msg_delivered
  | Msg_lost

let count_msg bus ~node kind =
  let c = bus.node_counters.(node) in
  match kind with
  | Msg_sent -> c.c_sent <- c.c_sent + 1
  | Msg_delivered -> c.c_delivered <- c.c_delivered + 1
  | Msg_lost -> c.c_lost <- c.c_lost + 1

let count bus ev =
  let c i = bus.node_counters.(i) in
  match ev with
  | Ev_step { node; _ } -> (c node).c_steps <- (c node).c_steps + 1
  | Ev_msg_send { src; _ } -> count_msg bus ~node:src Msg_sent
  | Ev_msg_deliver { node; _ } -> count_msg bus ~node Msg_delivered
  | Ev_msg_lost { src; _ } -> count_msg bus ~node:src Msg_lost
  | Ev_msg_drop { node; _ } -> count_msg bus ~node Msg_lost
  | Ev_move_start { node; _ } -> (c node).c_moves_out <- (c node).c_moves_out + 1
  | Ev_evict { node; _ } -> (c node).c_evictions <- (c node).c_evictions + 1
  | Ev_move_finish { node; _ } -> (c node).c_moves_in <- (c node).c_moves_in + 1
  | Ev_conversion { node; calls; bytes } ->
    (c node).c_conv_calls <- (c node).c_conv_calls + calls;
    (c node).c_conv_bytes <- (c node).c_conv_bytes + bytes
  | Ev_gc { node; bytes_freed; _ } ->
    (c node).c_collections <- (c node).c_collections + 1;
    (c node).c_gc_bytes_freed <- (c node).c_gc_bytes_freed + bytes_freed
  | Ev_gc_phase { node; _ } ->
    (c node).c_gc_increments <- (c node).c_gc_increments + 1
  | Ev_search_start { node; _ } -> (c node).c_searches <- (c node).c_searches + 1
  | Ev_fault { src; _ } -> (c src).c_faults <- (c src).c_faults + 1
  | Ev_msg_dup { node; _ } ->
    (c node).c_dups_suppressed <- (c node).c_dups_suppressed + 1
  | Ev_retransmit { node; _ } -> (c node).c_retransmits <- (c node).c_retransmits + 1
  | Ev_ack { node; _ } -> (c node).c_acks <- (c node).c_acks + 1
  | Ev_dir_update { node; _ } -> (c node).c_dir_updates <- (c node).c_dir_updates + 1
  | Ev_dir_lookup { node; _ } -> (c node).c_dir_lookups <- (c node).c_dir_lookups + 1
  | Ev_locate { node; hops; _ } ->
    (c node).c_locates <- (c node).c_locates + 1;
    (c node).c_locate_hops <- (c node).c_locate_hops + hops
  | Ev_collapse { node; _ } -> (c node).c_collapses <- (c node).c_collapses + 1
  | Ev_group_move { node; objects; _ } ->
    (c node).c_group_moves <- (c node).c_group_moves + 1;
    (c node).c_group_objects <- (c node).c_group_objects + objects
  | Ev_blit { node; skipped; _ } ->
    if skipped then (c node).c_blit_skips <- (c node).c_blit_skips + 1
    else (c node).c_blit_fallbacks <- (c node).c_blit_fallbacks + 1
  | Ev_bridge { node; count; _ } -> (c node).c_bridged <- (c node).c_bridged + count
  | Ev_crash _ | Ev_restart _ | Ev_thread_lost _ | Ev_search_found _
  | Ev_search_failed _ | Ev_span _ -> ()

let emit bus ev =
  count bus ev;
  List.iter (fun f -> f ev) bus.subscribers

(* step events fire once per scheduling slice — the hottest path in the
   simulation — so avoid constructing the event value when nobody is
   listening (the counter is all that's needed) *)
let emit_step bus ~node ~time =
  let c = bus.node_counters.(node) in
  c.c_steps <- c.c_steps + 1;
  match bus.subscribers with
  | [] -> ()
  | subs ->
    let ev = Ev_step { node; time } in
    List.iter (fun f -> f ev) subs

(* spans read clocks, never charge them, so tracing cannot perturb
   simulated times; per-node id counters keep every id stream
   deterministic *)

let enable_spans bus = bus.spans_on <- true
let spans_on bus = bus.spans_on

let span_id bus node =
  let s = bus.span_seq.(node) + 1 in
  bus.span_seq.(node) <- s;
  { Obs.Span.id_node = node; id_seq = s }

let emit_span bus ~node ?parent ?(bytes = 0) ~pair ~name ~t0 ~t1 () =
  let id = span_id bus node in
  emit bus
    (Ev_span
       { Obs.Span.name; node; arch_pair = pair; t_start_us = t0; t_end_us = t1;
         id; parent; bytes })

let arch_pair a b = a.Isa.Arch.id ^ "->" ^ b.Isa.Arch.id

(* a collection increment, and a finished collection, come once per
   step under a low threshold: on [emit_step]'s pattern they bump the
   counter and build the event only for a listener.  Times are read
   from clock records, so no float is boxed to pass them. *)
let emit_gc_phase bus ~node ~arch ~phase ~scanned ~(t0 : Sim.Clock.t) ~(t1 : Sim.Clock.t) =
  let c = bus.node_counters.(node) in
  c.c_gc_increments <- c.c_gc_increments + 1;
  (match bus.subscribers with
  | [] -> ()
  | subs ->
    let now = t1.Sim.Clock.now in
    let ev =
      Ev_gc_phase { time = now; node; phase; scanned; pause_us = now -. t0.Sim.Clock.now }
    in
    List.iter (fun f -> f ev) subs);
  if bus.spans_on then
    emit_span bus ~node ~pair:(arch_pair arch arch) ~name:phase ~t0:t0.Sim.Clock.now
      ~t1:t1.Sim.Clock.now ()

let emit_gc bus ~node ~(clock : Sim.Clock.t) ~swept ~live ~bytes_freed =
  let c = bus.node_counters.(node) in
  c.c_collections <- c.c_collections + 1;
  c.c_gc_bytes_freed <- c.c_gc_bytes_freed + bytes_freed;
  match bus.subscribers with
  | [] -> ()
  | subs ->
    let ev = Ev_gc { time = clock.Sim.Clock.now; node; swept; live; bytes_freed } in
    List.iter (fun f -> f ev) subs

type root = { root_id : Obs.Span.id; root_t0 : float; root_pair : string }

let span_leg bus root ~node ~bytes ~name ~t0 ~t1 =
  match root with
  | Some r ->
    emit_span bus ~node ~parent:r.root_id ~bytes ~pair:r.root_pair ~name ~t0 ~t1 ()
  | None -> ()

let counters bus node = bus.node_counters.(node)
let n_nodes bus = Array.length bus.node_counters

let total bus f =
  Array.fold_left (fun acc c -> acc + f c) 0 bus.node_counters
