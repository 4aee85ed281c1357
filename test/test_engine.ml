(* The discrete-event engine: run-to-run determinism, the (time, rank)
   total order on colliding timestamps, the engine's instrumentation
   counters, runs pinned to values recorded before the sharded engine
   and the seed's rescan were deleted, and balancing points. *)

module A = Isa.Arch
module V = Ert.Value
module W = Core.Workloads
module C = Core.Cluster

let check = Alcotest.check

let archs n =
  let pool = [| A.sparc; A.sun3; A.hp9000_433; A.vax |] in
  List.init n (fun i -> pool.(i mod Array.length pool))

type capture = {
  cap_result : int;
  cap_events : int;
  cap_time : float;
  cap_log : string;  (** every bus event rendered, in order *)
}

(* spawn the ring-touring workload without running it *)
let start_tour ?quantum ~n_nodes ~hops ~spins () =
  let cl = C.create ?quantum ~archs:(archs n_nodes) () in
  ignore (C.compile_and_load cl ~name:"tour" W.scaling_src);
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    C.spawn cl ~node:0 ~target:agent ~op:"tour"
      ~args:
        [
          V.Vint (Int32.of_int n_nodes);
          V.Vint (Int32.of_int hops);
          V.Vint (Int32.of_int spins);
        ]
  in
  (cl, tid)

(* run the ring-touring workload, recording the full event sequence *)
let run_tour ?quantum ~n_nodes ~hops ~spins () =
  let cl, tid = start_tour ?quantum ~n_nodes ~hops ~spins () in
  let log = Buffer.create 4096 in
  C.subscribe_events cl (fun ev ->
      Buffer.add_string log (Core.Events.to_string ev);
      Buffer.add_char log '\n');
  let result =
    match C.run_until_result cl tid with
    | Some (V.Vint v) -> Int32.to_int v
    | _ -> Alcotest.fail "tour did not return an int"
  in
  ( cl,
    {
      cap_result = result;
      cap_events = C.events_processed cl;
      cap_time = C.global_time_us cl;
      cap_log = Buffer.contents log;
    } )

(* the tour's accumulator: (j mod 2) summed over j = 1..spins, per hop *)
let expected_acc ~hops ~spins = hops * ((spins + 1) / 2)

let same_capture name a b =
  check Alcotest.int (name ^ ": result") a.cap_result b.cap_result;
  check Alcotest.int (name ^ ": events processed") a.cap_events b.cap_events;
  check (Alcotest.float 0.0) (name ^ ": final virtual time") a.cap_time b.cap_time;
  check Alcotest.string (name ^ ": event sequence") a.cap_log b.cap_log

let test_repeat_identical () =
  (* same workload twice, Emerald bus-stop discipline: bit-identical *)
  let go () = snd (run_tour ~n_nodes:4 ~hops:8 ~spins:40 ()) in
  let a = go () and b = go () in
  same_capture "bus-stop" a b;
  check Alcotest.int "result value" (expected_acc ~hops:8 ~spins:40) a.cap_result

let test_repeat_identical_preemptive () =
  (* same, under a tiny preemptive quantum: far more events, still
     bit-identical *)
  let go () = snd (run_tour ~quantum:2 ~n_nodes:4 ~hops:8 ~spins:40 ()) in
  let a = go () and b = go () in
  same_capture "quantum=2" a b

let test_engine_counters () =
  let cl, tour = run_tour ~quantum:2 ~n_nodes:4 ~hops:8 ~spins:40 () in
  let e = C.engine cl in
  if Core.Engine.pops e = 0 then Alcotest.fail "the loop must pop events from the engine";
  if Core.Engine.pops e - Core.Engine.stale_pops e < tour.cap_events then
    Alcotest.failf "executed events (%d) exceed non-stale pops (%d)" tour.cap_events
      (Core.Engine.pops e - Core.Engine.stale_pops e);
  check Alcotest.int "the heap drains its queue" 0 (Core.Engine.pending e)

let test_large_cluster_smoke () =
  (* migration-heavy run across 64 heterogeneous nodes: must terminate
     within a bounded event budget with the right answer *)
  let _, cap = run_tour ~quantum:2 ~n_nodes:64 ~hops:64 ~spins:5 () in
  check Alcotest.int "64-node tour result" (expected_acc ~hops:64 ~spins:5)
    cap.cap_result;
  if cap.cap_events > 200_000 then
    Alcotest.failf "event budget blown: %d events" cap.cap_events

let drain e =
  let rec go acc =
    if Core.Engine.is_empty e then List.rev acc
    else
      let r = Core.Engine.take e in
      go ((Core.Engine.kind r, Core.Engine.node r) :: acc)
  in
  go []

let ev_label (kind, i) =
  Printf.sprintf "%s%d"
    (match (kind : Core.Engine.kind) with
    | Chaos -> "chaos"
    | Gc -> "gc"
    | Deliver -> "deliver"
    | Step -> "step"
    | Timer -> "timer"
    | Wake -> "wake")
    i

let test_colliding_timestamps () =
  (* every entry at the same virtual time: the pop order must be the
     node-major rank — all of node 0's kinds before any of node 1's —
     regardless of insertion order *)
  let module Eng = Core.Engine in
  let entries =
    Eng.[ (Step, 2); (Timer, 0); (Gc, 3); (Deliver, 1); (Chaos, 2);
          (Deliver, 0); (Step, 0); (Gc, 1); (Timer, 3); (Chaos, 1) ]
  in
  let expected =
    "deliver0 step0 timer0 chaos1 gc1 deliver1 chaos2 step2 gc3 timer3"
  in
  let run order =
    let e = Eng.create ~n_nodes:4 () in
    List.iter (fun (kind, i) -> Eng.schedule e ~at:100.0 kind i) order;
    String.concat " " (List.map ev_label (drain e))
  in
  check Alcotest.string "node-major rank order" expected (run entries);
  check Alcotest.string "insertion-order independent" expected
    (run (List.rev entries));
  (* ties against earlier times never jump the queue *)
  let e = Eng.create ~n_nodes:4 () in
  Eng.schedule e ~at:100.0 Eng.Step 0;
  Eng.schedule e ~at:99.0 Eng.Timer 3;
  check Alcotest.string "time before rank" "timer3 step0"
    (String.concat " " (List.map ev_label (drain e)))

(* Random traffic against a reference model: a sorted list of pending
   entries that keeps at most one per (kind, node), ordered by time and
   then node-major rank (per node Chaos < Gc < Deliver < Wake < Step <
   Timer).  Times come from a four-value set, so they collide, or from a
   wide range; [Fill] queues every (kind, node) at once in a random
   order, the most the engine can ever hold. *)
type engine_op =
  | Schedule of (Core.Engine.kind * int) * float
  | Reschedule of (Core.Engine.kind * int) * float
  | Take
  | Fill of ((Core.Engine.kind * int) * float) list

let event_of ~kind ~node =
  let module Eng = Core.Engine in
  ( (match kind with
    | 0 -> Eng.Chaos
    | 1 -> Eng.Gc
    | 2 -> Eng.Deliver
    | 3 -> Eng.Wake
    | 4 -> Eng.Step
    | _ -> Eng.Timer),
    node )

let model_rank ((kind : Core.Engine.kind), i) =
  (i * 6) + match kind with Chaos -> 0 | Gc -> 1 | Deliver -> 2 | Wake -> 3 | Step -> 4 | Timer -> 5

let pp_engine_op = function
  | Schedule (ev, at) -> Printf.sprintf "schedule %s %g" (ev_label ev) at
  | Reschedule (ev, at) -> Printf.sprintf "reschedule %s %g" (ev_label ev) at
  | Take -> "take"
  | Fill evs ->
    "fill ["
    ^ String.concat ", "
        (List.map (fun (ev, at) -> Printf.sprintf "%s %g" (ev_label ev) at) evs)
    ^ "]"

let engine_traffic =
  let open QCheck.Gen in
  let time =
    frequency
      [ (3, map float_of_int (0 -- 3)); (1, map Float.round (float_range 0.0 1000.0)) ]
  in
  let op n =
    let event = map2 (fun kind node -> event_of ~kind ~node) (0 -- 5) (0 -- (n - 1)) in
    frequency
      [
        (4, map2 (fun ev at -> Schedule (ev, at)) event time);
        (1, map2 (fun ev at -> Reschedule (ev, at)) event time);
        (4, return Take);
        ( 1,
          shuffle_l (List.init (n * 6) (fun r -> event_of ~kind:(r mod 6) ~node:(r / 6)))
          >>= fun evs ->
          map (fun ts -> Fill (List.combine evs ts)) (list_repeat (n * 6) time) );
      ]
  in
  QCheck.make
    ~shrink:QCheck.Shrink.(pair nil (fun ops -> list ops))
    ~print:(fun (n, ops) ->
      Printf.sprintf "%d nodes: %s" n (String.concat "; " (List.map pp_engine_op ops)))
    (1 -- 8 >>= fun n -> map (fun ops -> (n, ops)) (list_size (1 -- 120) (op n)))

let engine_model_prop =
  QCheck.Test.make ~count:500 ~name:"engine == a sorted one-per-rank model" engine_traffic
    (fun (n, ops) ->
      let module Eng = Core.Engine in
      let e = Eng.create ~n_nodes:n () in
      let pending = ref [] and now = ref 0.0 in
      let pushes = ref 0 and pops = ref 0 and stale = ref 0 in
      let key (at, ev) = (at, model_rank ev) in
      (* a second entry for a queued (kind, node) is dropped *)
      let model_schedule ev at =
        if not (List.exists (fun (_, ev') -> ev' = ev) !pending) then begin
          incr pushes;
          pending := List.merge (fun a b -> compare (key a) (key b)) [ (at, ev) ] !pending
        end
      in
      let take () =
        let want =
          match !pending with
          | [] -> None
          | (at, ev) :: rest ->
            pending := rest;
            incr pops;
            now := Float.max !now at;
            Some ev
        in
        let got =
          if Eng.is_empty e then None
          else
            let r = Eng.take e in
            Some (Eng.kind r, Eng.node r)
        in
        got = want
      in
      (* the head's time, read through [before]: nothing is due before
         it, and it is due before the next float up *)
      let head_is at = (not (Eng.before e at)) && Eng.before e (Float.succ at) in
      let agree () =
        Eng.now e = !now
        && Eng.pending e = List.length !pending
        && Eng.is_empty e = (!pending = [])
        && (match !pending with
           | [] -> not (Eng.before e infinity)
           | (at, _) :: _ -> head_is at)
        && Eng.pushes e = !pushes && Eng.pops e = !pops
        && Eng.stale_pops e = !stale
      in
      let apply = function
        | Schedule ((kind, i), at) ->
          model_schedule (kind, i) at;
          Eng.schedule e ~at kind i;
          true
        | Reschedule ((kind, i), at) ->
          incr stale;
          model_schedule (kind, i) at;
          Eng.reschedule e ~at kind i;
          true
        | Take -> take ()
        | Fill evs ->
          List.iter
            (fun ((kind, i), at) ->
              model_schedule (kind, i) at;
              Eng.schedule e ~at kind i)
            evs;
          true
      in
      List.for_all (fun op -> apply op && agree ()) ops
      (* then the rest drains in the model's order, and one more take
         finds the engine empty and refuses *)
      && List.for_all
           (fun _ -> take () && agree ())
           (List.init (List.length !pending + 1) Fun.id)
      && match Eng.take e with
         | _ -> false
         | exception Invalid_argument _ -> true)

(* Scheduling and taking build nothing: a round fills every rank by
   [schedule], drains it, fills it again by [reschedule] and drains it,
   under [Gc.minor_words].  The times are boxed once, in the entries, so
   passing one allocates nothing either. *)
let rec schedule_all e ~stale = function
  | [] -> ()
  | (kind, node, at) :: rest ->
    if stale then Core.Engine.reschedule e ~at kind node
    else Core.Engine.schedule e ~at kind node;
    schedule_all e ~stale rest

let rec take_all e sum =
  if Core.Engine.is_empty e then sum else take_all e (sum + Core.Engine.take e)

let test_engine_allocates_nothing () =
  let n = 4 in
  let e = Core.Engine.create ~n_nodes:n () in
  let entries =
    List.init (n * 6) (fun r ->
        let kind, node = event_of ~kind:(r mod 6) ~node:(r / 6) in
        (kind, node, float_of_int (r * 7 mod 5)))
  in
  let sums = ref [] in
  let round () =
    schedule_all e ~stale:false entries;
    let full = Core.Engine.pending e in
    let a = take_all e 0 in
    schedule_all e ~stale:true entries;
    let b = take_all e 0 in
    sums := (full, a, b) :: !sums
  in
  round ();
  let before = Gc.minor_words () in
  schedule_all e ~stale:false entries;
  let a = take_all e 0 in
  schedule_all e ~stale:true entries;
  let b = take_all e 0 in
  let words = Gc.minor_words () -. before in
  let every = n * 6 * ((n * 6) - 1) / 2 in
  check Alcotest.(list (triple int int int)) "the warm-up round filled every rank"
    [ (n * 6, every, every) ] !sums;
  check Alcotest.(pair int int) "each drain took every rank" (every, every) (a, b);
  check Alcotest.int "reschedules counted" (2 * n * 6) (Core.Engine.stale_pops e);
  check (Alcotest.float 0.0) "words" 0.0 words

(* The one-heap loop against values pinned from the sharded engine's
   last release, where 1, 2 and 4 shards agreed on them: the
   multi-agent ring tour traced and untraced, the single-agent tour
   under a 2-instruction quantum, and the Table 1 round trip. *)
let test_pinned_ring_tour_trace () =
  let _, traced = Pinned.ring_tour ~subscribe:true ~n_nodes:4 ~hops:6 ~spins:30 () in
  check Alcotest.string "ring tour, traced"
    "result 360, events 1032, collections 0, time 215658.2666666671, \
     trace e33afcbc3e9c2948b34c5ec1c0a6a27e"
    traced

let test_pinned_ring_tour_counters () =
  let cl, untraced =
    Pinned.ring_tour ~subscribe:false ~gc_threshold:60_000 ~n_nodes:4 ~hops:6
      ~spins:30 ()
  in
  let counters =
    String.concat " "
      (List.map
         (fun f -> string_of_int (C.total_counter cl f))
         Core.Events.
           [ (fun c -> c.c_steps); (fun c -> c.c_sent); (fun c -> c.c_delivered);
             (fun c -> c.c_moves_in); (fun c -> c.c_collections);
             (fun c -> c.c_conv_calls) ])
  in
  check Alcotest.string "ring tour, untraced, collecting"
    "result 360, events 1032, collections 0, time 215658.2666666671, \
     counters 1004 28 28 28 0 7944"
    (untraced ^ ", counters " ^ counters)

let test_pinned_quantum_tour () =
  let _, tour = run_tour ~quantum:2 ~n_nodes:4 ~hops:8 ~spins:40 () in
  check Alcotest.string "single-agent tour, quantum 2"
    "result 160, events 4594, time 376490.90080938576, \
     trace a969c71b55068440d0b121094741f59e"
    (Printf.sprintf "result %d, events %d, time %.17g, trace %s" tour.cap_result
       tour.cap_events tour.cap_time (Pinned.digest tour.cap_log))

(* The scaling benchmark's tour at every size it runs, pinned to the
   values the heap and the seed's O(nodes) rescan both produced before
   the rescan was deleted. *)
let test_pinned_scaling () =
  let row n =
    let s = W.measure_scaling ~quantum:2 ~n_nodes:n ~hops:48 ~spins:800 () in
    Printf.sprintf "%d: result %d, events %d, time %.17g" n s.W.sc_result s.W.sc_events
      s.W.sc_virtual_us
  in
  check
    Alcotest.(list string)
    "scaling tour at 4-64 nodes"
    [ "4: result 19200, events 529074, time 2624904.8458002903";
      "8: result 19200, events 529074, time 2657169.8030641861";
      "16: result 19200, events 529074, time 2721699.7175942678";
      "32: result 19200, events 529076, time 2878377.2799880845";
      "64: result 19200, events 529076, time 3012437.109047913" ]
    (List.map row [ 4; 8; 16; 32; 64 ])

let test_pinned_table1 () =
  let rt = W.measure_roundtrip ~home:A.sparc ~dest:A.sun3 ~iters:4 () in
  check Alcotest.string "Table 1, SPARC to Sun-3"
    "97403 us/trip, 1672 bytes, 8 messages"
    (Printf.sprintf "%.17g us/trip, %d bytes, %d messages" rt.W.rt_us_per_trip
       rt.W.rt_bytes_sent rt.W.rt_messages)

(* A balancer installed mid-run: its first firing point is one period
   past the frontier at the install, and each later one a period past
   the last.  The hook sees the frontier (the last event that ran before
   the firing point) and the earliest pending event (the first that runs
   after it), and firing k must fall between the two. *)
let test_balancer_installed_mid_run () =
  let every = 400.0 in
  let cl, tid = start_tour ~quantum:2 ~n_nodes:2 ~hops:8 ~spins:40 () in
  let e = C.engine cl in
  for _ = 1 to 2000 do
    if not (C.step_once cl) then Alcotest.fail "the tour ended before the install"
  done;
  let t0 = Core.Engine.now e in
  if t0 < 10.0 *. every then Alcotest.failf "install at %.1f us is not mid-run" t0;
  let firings = ref [] in
  C.set_balancer cl ~every_us:every (fun () ->
      let point = t0 +. (float_of_int (List.length !firings + 1) *. every) in
      firings := (Core.Engine.now e, Core.Engine.before e point) :: !firings);
  ignore (C.step_once cl);
  check Alcotest.int "no firing on the step after the install" 0 (List.length !firings);
  (match C.run_until_result cl tid with
  | Some (V.Vint v) ->
    check Alcotest.int "tour result" (expected_acc ~hops:8 ~spins:40) (Int32.to_int v)
  | _ -> Alcotest.fail "tour did not return an int");
  let firings = List.rev !firings in
  if List.length firings < 2 then Alcotest.fail "the balancer did not fire after the install";
  List.iteri
    (fun i (frontier, pending_before) ->
      let point = t0 +. (float_of_int (i + 1) *. every) in
      if not (frontier < point) then
        Alcotest.failf "firing %d: point %.3f us not past the frontier %.3f" (i + 1) point
          frontier;
      if pending_before then
        Alcotest.failf "firing %d: an event pending before the point %.3f us" (i + 1) point)
    firings

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "engine total order on colliding timestamps" `Quick
          test_colliding_timestamps;
        QCheck_alcotest.to_alcotest engine_model_prop;
        Alcotest.test_case "scheduling and taking allocate nothing" `Quick
          test_engine_allocates_nothing;
        Alcotest.test_case "ring tour trace pinned" `Quick
          test_pinned_ring_tour_trace;
        Alcotest.test_case "ring tour counters pinned" `Quick
          test_pinned_ring_tour_counters;
        Alcotest.test_case "quantum-2 tour trace pinned" `Quick
          test_pinned_quantum_tour;
        Alcotest.test_case "SPARC to Sun-3 round trip pinned" `Quick
          test_pinned_table1;
        Alcotest.test_case "scaling tour pinned, 4-64 nodes" `Quick
          test_pinned_scaling;
        Alcotest.test_case "same workload twice is bit-identical" `Quick
          test_repeat_identical;
        Alcotest.test_case "identical under quantum preemption" `Quick
          test_repeat_identical_preemptive;
        Alcotest.test_case "engine counters account for every event" `Quick
          test_engine_counters;
        Alcotest.test_case "64-node migration-heavy smoke" `Quick
          test_large_cluster_smoke;
        Alcotest.test_case "a balancer installed mid-run fires a period later" `Quick
          test_balancer_installed_mid_run;
      ] );
  ]
