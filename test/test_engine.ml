(* The discrete-event engine: run-to-run determinism, heap/scan
   equivalence (the heap must replay the seed's scan order exactly), the
   (time, rank) total order on colliding timestamps, the engine's
   instrumentation counters, runs pinned to the values the sharded
   engine's last release recorded for them, and the scan refusing what
   it cannot run. *)

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

(* run the ring-touring workload, recording the full event sequence *)
let run_tour ?quantum ~scheduler ~n_nodes ~hops ~spins () =
  let cl = C.create ~scheduler ?quantum ~archs:(archs n_nodes) () in
  ignore (C.compile_and_load cl ~name:"tour" W.scaling_src);
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  let log = Buffer.create 4096 in
  C.subscribe_events cl (fun ev ->
      Buffer.add_string log (Core.Events.to_string ev);
      Buffer.add_char log '\n');
  let tid =
    C.spawn cl ~node:0 ~target:agent ~op:"tour"
      ~args:
        [
          V.Vint (Int32.of_int n_nodes);
          V.Vint (Int32.of_int hops);
          V.Vint (Int32.of_int spins);
        ]
  in
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
  let go () = snd (run_tour ~scheduler:C.Heap ~n_nodes:4 ~hops:8 ~spins:40 ()) in
  let a = go () and b = go () in
  same_capture "bus-stop" a b;
  check Alcotest.int "result value" (expected_acc ~hops:8 ~spins:40) a.cap_result

let test_repeat_identical_preemptive () =
  (* same, under a tiny preemptive quantum: far more events, still
     bit-identical *)
  let go () =
    snd (run_tour ~quantum:2 ~scheduler:C.Heap ~n_nodes:4 ~hops:8 ~spins:40 ())
  in
  let a = go () and b = go () in
  same_capture "quantum=2" a b

let test_heap_replays_scan () =
  (* the acceptance bar: at 4 nodes the heap scheduler must reproduce the
     seed scan's event sequence, times and result exactly *)
  let go scheduler =
    snd (run_tour ~quantum:2 ~scheduler ~n_nodes:4 ~hops:8 ~spins:40 ())
  in
  let scan = go C.Scan and heap = go C.Heap in
  same_capture "scan vs heap" scan heap

let test_engine_counters () =
  let heap_cl, heap =
    run_tour ~quantum:2 ~scheduler:C.Heap ~n_nodes:4 ~hops:8 ~spins:40 ()
  in
  let scan_cl, _ =
    run_tour ~quantum:2 ~scheduler:C.Scan ~n_nodes:4 ~hops:8 ~spins:40 ()
  in
  let e = C.engine heap_cl in
  if Core.Engine.pops e = 0 then
    Alcotest.fail "heap mode must pop events from the engine, not scan";
  if Core.Engine.pops e - Core.Engine.stale_pops e < heap.cap_events then
    Alcotest.failf "executed events (%d) exceed non-stale pops (%d)"
      heap.cap_events
      (Core.Engine.pops e - Core.Engine.stale_pops e);
  check Alcotest.int "scan mode never touches the engine" 0
    (Core.Engine.pops (C.engine scan_cl) + Core.Engine.pushes (C.engine scan_cl));
  check Alcotest.int "heap drains its queue" 0 (Core.Engine.pending e)

let test_large_cluster_smoke () =
  (* migration-heavy run across 64 heterogeneous nodes: must terminate
     within a bounded event budget with the right answer *)
  let _, cap = run_tour ~quantum:2 ~scheduler:C.Heap ~n_nodes:64 ~hops:64 ~spins:5 () in
  check Alcotest.int "64-node tour result" (expected_acc ~hops:64 ~spins:5)
    cap.cap_result;
  if cap.cap_events > 200_000 then
    Alcotest.failf "event budget blown: %d events" cap.cap_events

let drain e =
  let rec go acc =
    match Core.Engine.take e with
    | None -> List.rev acc
    | Some ev -> go (ev :: acc)
  in
  go []

let ev_label = function
  | Core.Engine.Chaos i -> Printf.sprintf "chaos%d" i
  | Core.Engine.Gc i -> Printf.sprintf "gc%d" i
  | Core.Engine.Deliver i -> Printf.sprintf "deliver%d" i
  | Core.Engine.Step i -> Printf.sprintf "step%d" i
  | Core.Engine.Timer i -> Printf.sprintf "timer%d" i
  | Core.Engine.Wake i -> Printf.sprintf "wake%d" i

let test_colliding_timestamps () =
  (* every entry at the same virtual time: the pop order must be the
     node-major rank — all of node 0's kinds before any of node 1's —
     regardless of insertion order *)
  let module Eng = Core.Engine in
  let entries =
    [ Eng.Step 2; Eng.Timer 0; Eng.Gc 3; Eng.Deliver 1; Eng.Chaos 2;
      Eng.Deliver 0; Eng.Step 0; Eng.Gc 1; Eng.Timer 3; Eng.Chaos 1 ]
  in
  let expected =
    "deliver0 step0 timer0 chaos1 gc1 deliver1 chaos2 step2 gc3 timer3"
  in
  let run order =
    let e = Eng.create ~n_nodes:4 () in
    List.iter (fun ev -> Eng.schedule e ~at:100.0 ev) order;
    String.concat " " (List.map ev_label (drain e))
  in
  check Alcotest.string "node-major rank order" expected (run entries);
  check Alcotest.string "insertion-order independent" expected
    (run (List.rev entries));
  (* ties against earlier times never jump the queue *)
  let e = Eng.create ~n_nodes:4 () in
  Eng.schedule e ~at:100.0 (Eng.Step 0);
  Eng.schedule e ~at:99.0 (Eng.Timer 3);
  check Alcotest.string "time before rank" "timer3 step0"
    (String.concat " " (List.map ev_label (drain e)))

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
  let _, tour = run_tour ~quantum:2 ~scheduler:C.Heap ~n_nodes:4 ~hops:8 ~spins:40 () in
  check Alcotest.string "single-agent tour, quantum 2"
    "result 160, events 4594, time 376490.90080938576, \
     trace a969c71b55068440d0b121094741f59e"
    (Printf.sprintf "result %d, events %d, time %.17g, trace %s" tour.cap_result
       tour.cap_events tour.cap_time (Pinned.digest tour.cap_log))

let test_pinned_table1 () =
  let rt = W.measure_roundtrip ~home:A.sparc ~dest:A.sun3 ~iters:4 () in
  check Alcotest.string "Table 1, SPARC to Sun-3"
    "97403 us/trip, 1672 bytes, 8 messages"
    (Printf.sprintf "%.17g us/trip, %d bytes, %d messages" rt.W.rt_us_per_trip
       rt.W.rt_bytes_sent rt.W.rt_messages)

(* The scan sees message deliveries and scheduling slices only.  Under
   it a balancer would never fire and a timed wait would never expire,
   so it refuses both instead of returning a quiet wrong answer. *)
let test_scan_refuses_balancer () =
  let cl = C.create ~scheduler:C.Scan ~archs:(archs 2) () in
  match C.set_balancer cl ~every_us:400.0 (fun () -> ()) with
  | () -> Alcotest.fail "Scan accepted a balancer it never fires"
  | exception Invalid_argument _ -> ()

let napper_src =
  {|
object Napper
  condition never
  monitor operation nap[us : int] -> [r : int]
    var t0 : int <- timenow
    wait never timeout us
    r <- timenow - t0
  end nap
end Napper
|}

let test_scan_refuses_timed_wait () =
  let cl = C.create ~scheduler:C.Scan ~archs:[ A.sparc ] () in
  ignore (C.compile_and_load cl ~name:"nap" napper_src);
  let napper = C.create_object cl ~node:0 ~class_name:"Napper" in
  ignore (C.spawn cl ~node:0 ~target:napper ~op:"nap" ~args:[ V.Vint 500l ]);
  match C.run cl with
  | () -> Alcotest.fail "Scan went quiescent with a timed wait pending"
  | exception Invalid_argument msg ->
    let says = "timed wait" in
    let rec mentions i =
      i + String.length says <= String.length msg
      && (String.sub msg i (String.length says) = says || mentions (i + 1))
    in
    if not (mentions 0) then Alcotest.failf "the error does not name the cause: %s" msg

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "engine total order on colliding timestamps" `Quick
          test_colliding_timestamps;
        Alcotest.test_case "ring tour trace pinned" `Quick
          test_pinned_ring_tour_trace;
        Alcotest.test_case "ring tour counters pinned" `Quick
          test_pinned_ring_tour_counters;
        Alcotest.test_case "quantum-2 tour trace pinned" `Quick
          test_pinned_quantum_tour;
        Alcotest.test_case "SPARC to Sun-3 round trip pinned" `Quick
          test_pinned_table1;
        Alcotest.test_case "same workload twice is bit-identical" `Quick
          test_repeat_identical;
        Alcotest.test_case "identical under quantum preemption" `Quick
          test_repeat_identical_preemptive;
        Alcotest.test_case "heap replays the scan exactly (4 nodes)" `Quick
          test_heap_replays_scan;
        Alcotest.test_case "engine counters account for every event" `Quick
          test_engine_counters;
        Alcotest.test_case "64-node migration-heavy smoke" `Quick
          test_large_cluster_smoke;
        Alcotest.test_case "Scan refuses a balancer" `Quick test_scan_refuses_balancer;
        Alcotest.test_case "Scan refuses a timed wait" `Quick
          test_scan_refuses_timed_wait;
      ] );
  ]
