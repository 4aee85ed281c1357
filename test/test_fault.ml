(* The fault-injection subsystem: seeded determinism, the retry/ack
   transport's exactly-once guarantee under loss, partition heal and
   recovery, the emfuzz harness's blanket safety property, fuzz outcomes
   pinned across the sharded engine's deletion and per fuzz mode, the
   seeds found stuck
   past CI's sweep depth, and a shrunk plan that reproduces. *)

module A = Isa.Arch
module V = Ert.Value
module P = Fault.Plan

let check = Alcotest.check

let ping_src =
  {|
object Agent
  operation trip[dest : int, iters : int] -> [r : int]
    var home : int <- thisnode
    var i : int <- 0
    loop
      exit when i >= iters
      i <- i + 1
      move self to dest
      move self to home
    end loop
    r <- i
  end trip
end Agent
|}

(* run the ping workload on a fresh two-node cluster, collecting every
   bus event as its printed line *)
let run_ping ?faults ~iters () =
  let cl = Core.Cluster.create ?faults ~archs:[ A.sparc; A.vax ] () in
  let events = ref [] in
  Core.Cluster.subscribe_events cl (fun ev ->
      events := Core.Events.to_string ev :: !events);
  ignore (Core.Cluster.compile_and_load cl ~name:"ping" ping_src);
  let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip"
      ~args:[ V.Vint 1l; V.Vint (Int32.of_int iters) ]
  in
  let result = Core.Cluster.run_until_result cl tid in
  (cl, agent, result, List.rev !events)

(* (a) the same seed replays the same run bit-for-bit: every event line,
   the virtual clock, and the result *)
let test_same_seed_is_deterministic () =
  let faults = P.with_seed (P.make ~drop:0.3 ~dup:0.1 ~delay_p:0.2 ~delay_us:1500.0 ()) 42 in
  let cl1, _, r1, ev1 = run_ping ~faults ~iters:3 () in
  let cl2, _, r2, ev2 = run_ping ~faults ~iters:3 () in
  check (Alcotest.list Alcotest.string) "event sequences" ev1 ev2;
  check (Alcotest.float 0.0) "virtual times"
    (Core.Cluster.global_time_us cl1)
    (Core.Cluster.global_time_us cl2);
  check Alcotest.bool "results" true (r1 = r2);
  (* and the run actually exercised the machinery *)
  let faults_hit = Core.Cluster.total_counter cl1 (fun c -> c.Core.Events.c_faults) in
  if faults_hit = 0 then Alcotest.fail "plan injected nothing; weak test"

(* the empty plan is invisible: a cluster with [P.empty] (any seed)
   produces the exact event sequence and clock of a cluster with no
   fault subsystem at all *)
let test_empty_plan_is_bit_identical () =
  let cl1, _, r1, ev1 = run_ping ~iters:3 () in
  let cl2, _, r2, ev2 = run_ping ~faults:(P.with_seed P.empty 12345) ~iters:3 () in
  check (Alcotest.list Alcotest.string) "event sequences" ev1 ev2;
  check (Alcotest.float 0.0) "virtual times"
    (Core.Cluster.global_time_us cl1)
    (Core.Cluster.global_time_us cl2);
  check Alcotest.bool "results" true (r1 = r2)

(* (b) 30% loss plus duplication: every move still lands exactly once —
   the trip completes, the object ends at home, and the move count is
   exactly 2*iters despite the retransmitted and duplicated frames *)
let test_exactly_once_moves_under_loss () =
  let faults = P.with_seed (P.make ~drop:0.3 ~dup:0.1 ()) 7 in
  let cl, agent, result, _ = run_ping ~faults ~iters:3 () in
  (match result with
  | Some (V.Vint v) -> check Alcotest.int "trip count" 3 (Int32.to_int v)
  | _ -> Alcotest.fail "ping did not complete under 30% loss");
  check (Alcotest.option Alcotest.int) "agent back home" (Some 0)
    (Core.Cluster.where_is cl agent);
  let total f = Core.Cluster.total_counter cl f in
  check Alcotest.int "moves applied exactly once" 6
    (total (fun c -> c.Core.Events.c_moves_in));
  if total (fun c -> c.Core.Events.c_retransmits) = 0 then
    Alcotest.fail "no retransmissions at 30% loss; the plan did not bite";
  check (Alcotest.list Alcotest.string) "invariants" []
    (List.map
       (fun v -> Format.asprintf "%a" Fault.Invariants.pp_violation v)
       (Core.Cluster.check_invariants cl))

let search_src =
  {|
object Target
  var v : int <- 0
  operation poke[] -> [r : int]
    v <- v + 1
    r <- v * 100 + thisnode
  end poke
end Target

object Mover
  operation relocate[t : Target, dest : int]
    move t to dest
  end relocate
end Mover

object Caller
  operation call[t : Target] -> [r : int]
    r <- t.poke[]
  end call
end Caller
|}

(* (c) a partition cuts node 0 off while it tries to reach an object
   whose forwarding chain is broken; retransmission rides out the
   outage, and after the heal the location search finds the object *)
let test_partition_heal_search_recovery () =
  let faults =
    P.with_seed
      (P.make
         ~partitions:
           [ { P.pt_a = [ 0 ]; pt_b = [ 1; 2 ];
               pt_from_us = 0.0; pt_until_us = 40_000.0 } ]
         ())
      11
  in
  let cl = Core.Cluster.create ~faults ~archs:[ A.sparc; A.vax; A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"psearch" search_src);
  (* target born on 1, moved to 2, forwarding proxy on 1 collected: node
     1 no longer knows where the target is (all inside the majority
     side, unaffected by the cut) *)
  let target = Core.Cluster.create_object cl ~node:1 ~class_name:"Target" in
  let mover = Core.Cluster.create_object cl ~node:1 ~class_name:"Mover" in
  let mt =
    Core.Cluster.spawn cl ~node:1 ~target:mover ~op:"relocate"
      ~args:[ V.Vref target; V.Vint 2l ]
  in
  Core.Cluster.run cl;
  ignore (Core.Cluster.result cl mt);
  Ert.Gc.collect (Ert.Gc.create (Core.Cluster.kernel cl 1)) ~extra_roots:[ mover ]
    ~extra_addrs:[];
  (* node 0 — the partitioned minority — invokes through the creator
     hint; the invoke cannot cross the cut until it heals at 40ms *)
  let caller = Core.Cluster.create_object cl ~node:0 ~class_name:"Caller" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:caller ~op:"call" ~args:[ V.Vref target ]
  in
  (match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) -> check Alcotest.int "poked on node 2" 102 (Int32.to_int v)
  | _ -> Alcotest.fail "no result after the partition healed");
  let total f = Core.Cluster.total_counter cl f in
  if total (fun c -> c.Core.Events.c_retransmits) = 0 then
    Alcotest.fail "the cut frame was never retransmitted";
  if total (fun c -> c.Core.Events.c_searches) = 0 then
    Alcotest.fail "no location search ran";
  check Alcotest.bool "the heal was needed: faults were injected" true
    (total (fun c -> c.Core.Events.c_faults) > 0)

(* (d) the emfuzz harness's blanket property: under ANY seed-derived
   plan the root thread either completes or aborts with a reported
   unavailability, and no invariant ever trips *)
let qcheck_any_seed_is_safe =
  QCheck.Test.make ~count:40 ~name:"fuzz: any seed completes or reports loss"
    (QCheck.make
       ~print:(fun seed ->
         let o = Core.Fuzz.run_seed ~seed () in
         Printf.sprintf "seed %d (plan %s)" seed (P.to_string o.Core.Fuzz.f_plan))
       (QCheck.Gen.int_range 1 100_000))
    (fun seed -> (Core.Fuzz.run_seed ~seed ()).Core.Fuzz.f_ok)

(* the wire-level injection hooks: verdicts drop, duplicate and delay
   frames; counters and the fault observer see each one; delivery comes
   out in (arrival, seq) order *)
let test_netsim_injection_hooks () =
  let net = Enet.Netsim.create ~n_nodes:2 () in
  let verdicts =
    ref
      [ Some Enet.Netsim.Fault_drop;
        Some (Enet.Netsim.Fault_dup 5_000.0);
        Some (Enet.Netsim.Fault_delay 9_000.0);
        None ]
  in
  Enet.Netsim.set_injector net (fun ~src:_ ~dst:_ ~now_us:_ ->
      match !verdicts with
      | v :: rest ->
        verdicts := rest;
        v
      | [] -> None);
  let observed = ref 0 in
  Enet.Netsim.set_on_fault net (fun ~src:_ ~dst:_ _ -> incr observed);
  let send p = ignore (Enet.Netsim.send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:(Enet.Wire.view_of_string p) : float) in
  send "dropped";
  send "duplicated";
  send "delayed";
  send "clean";
  check Alcotest.int "faults observed" 3 !observed;
  check Alcotest.int "dropped" 1 (Enet.Netsim.messages_dropped net);
  check Alcotest.int "duplicated" 1 (Enet.Netsim.messages_duplicated net);
  check Alcotest.int "delayed" 1 (Enet.Netsim.messages_delayed net);
  (* 3 enqueued + 1 duplicate copy; the dropped frame never queues *)
  check Alcotest.int "pending" 4 (Enet.Netsim.pending net);
  let rec drain acc =
    match Enet.Netsim.receive net ~dst:1 ~now_us:1e9 with
    | Some m -> drain (Enet.Wire.view_to_string m.Enet.Netsim.msg_payload :: acc)
    | None -> List.rev acc
  in
  let order = drain [] in
  check (Alcotest.list Alcotest.string) "delivery order"
    [ "duplicated"; "clean"; "duplicated"; "delayed" ]
    order

(* fuzz outcomes pinned to the values the sharded engine's last release
   recorded, where 1, 2 and 4 shards agreed on them *)
let fuzz_outcomes ~gc seeds =
  List.map
    (fun seed ->
      Pinned.fuzz_outcome (Core.Fuzz.run_seed ~check_every:64 ~gc ~seed ()))
    seeds

let test_fuzz_outcomes_pinned () =
  check (Alcotest.list Alcotest.string) "default mode"
    [
      "seed 1: completed: 21, events 61, time 497369.11805555574, \
       trace ca001954dfb718284ecf8ac26deb092f";
      "seed 17: completed: 99911, events 40, time 404678.48703703709, \
       trace b01c6b0807ef8f66d4fdf20ab7d26edd";
      "seed 42: completed: 10, events 71, time 456081.42414853664, \
       trace af6a4557b58a98fbf57b18bc2f0a0738";
      "seed 99: completed: 98469, events 24, time 201970.52129629627, \
       trace 5c6ba9127d88ef33a977cd6659419882";
      "seed 262: completed: 45, events 81, time 742026.66990740807, \
       trace 47bbee0c1ea8db44f7fbef88757ce7f1";
      "seed 1000: completed: 28, events 61, time 582733.8342592594, \
       trace cfba45c322d221e940dc1b0f8caa7e6b";
      "seed 2024: completed: 10, events 52, time 358732.48240740743, \
       trace 23bccc97b963aec107e420bb7b06d38c";
      "seed 4096: completed: 15, events 53, time 502651.67174883978, \
       trace 8bcedc2cb76c8a9b6d2c6a6dccb62d38";
    ]
    (fuzz_outcomes ~gc:false [ 1; 17; 42; 99; 262; 1000; 2024; 4096 ])

let test_gc_fuzz_outcomes_pinned () =
  check (Alcotest.list Alcotest.string) "gc mode"
    [
      "seed 1: unavailable: object obj:0.2 cannot be located, events 14, \
       time 155230.27731481483, trace f4949bae797d51e2b17e3583998e88db";
      "seed 7: completed: 93396, events 22, time 192047.55092592584, \
       trace 711816b503f5ec7528c8d5cc17ddf10d";
      "seed 58: completed: 129550, events 13, time 134810.41666666666, \
       trace 05247cb65dab4639f6aeba33be994ea6";
      "seed 300: unavailable: object obj:0.2 cannot be located, events 27, \
       time 163381.94398148151, trace 12c18347d405058b0c94efc5bc5a50aa";
      "seed 913: unavailable: object obj:0.2 cannot be located, events 22, \
       time 170796.69959391907, trace ef0fb174beb9300821f9dcb72fed31a7";
      "seed 3001: unavailable: object obj:0.2 cannot be located, events 44, \
       time 194694.04589799882, trace fa582017956209a224aa42d4f15aff41";
    ]
    (fuzz_outcomes ~gc:true [ 1; 7; 58; 300; 913; 3001 ])

(* the mode pins also record the mode's own activity, so a pin that
   still matched with the balancer or the flock silently idle would fail *)
let mode_outcome (o : Core.Fuzz.outcome) =
  Printf.sprintf "%s; evictions %d, group moves %d, retransmits %d"
    (Pinned.fuzz_outcome o) o.Core.Fuzz.f_evictions o.Core.Fuzz.f_group_moves
    o.Core.Fuzz.f_retransmits

(* the hot-spot balancer's forced evictions under each seed's own plan:
   the balancer horizon gating the event loop, eviction capture at a bus
   stop and the greying-free send-off path *)
let test_evict_fuzz_outcomes_pinned () =
  check (Alcotest.list Alcotest.string) "evict mode"
    [
      "seed 1: completed: 21, events 693, time 2014264.2814814805, \
       trace 9ea7e58a7d643acb06794fcd23df8bfb; evictions 5, group moves 0, \
       retransmits 167";
      "seed 17: completed: 353818, events 546, time 1644699.5981481483, \
       trace cbebabbdee0feb64d18675340830da80; evictions 2, group moves 0, \
       retransmits 117";
      "seed 42: completed: 10, events 427, time 1241421.7875809371, \
       trace d6093f9f71361a4428538101b4b0692f; evictions 7, group moves 0, \
       retransmits 148";
      "seed 262: unavailable: node 1 crashed, events 5, \
       time 49217.607407407406, trace 4b22fe45f32005a7cdef2298d9f0ed9c; \
       evictions 1, group moves 0, retransmits 1";
    ]
    (List.map
       (fun seed ->
         mode_outcome (Core.Fuzz.run_seed ~check_every:64 ~evict:true ~seed ()))
       [ 1; 17; 42; 262 ])

(* every mode at once under 30% loss: evictions, group moves with
   directory traffic, incremental mark cycles and the retry transport *)
let test_combined_fuzz_outcomes_pinned () =
  check (Alcotest.list Alcotest.string) "combined mode"
    [
      "seed 1: unavailable: no acknowledgement from node 1 after 8 \
       attempts, events 141, time 364518.12592592597, \
       trace 14094c6366ea243368b637fa352e36a2; evictions 4, group moves 1, \
       retransmits 64";
      "seed 7: completed: 157356, events 167, time 598308.11018518533, \
       trace 078079f3aeb0e37bcb8991b5932130c9; evictions 2, group moves 1, \
       retransmits 55";
      "seed 58: completed: 419798, events 168, time 561795.71111111122, \
       trace 4b33ff40cc770f8d6f0565f18c4a483c; evictions 1, group moves 1, \
       retransmits 57";
    ]
    (List.map
       (fun seed ->
         mode_outcome
           (Core.Fuzz.run_seed ~check_every:64 ~evict:true ~groups:true ~gc:true
              ~drop:0.3 ~seed ()))
       [ 1; 7; 58 ])

(* Two --gc seeds whose location search lost its last answer: a
   "located ... not here" reply gave up after its retry budget, and the
   search waited for it forever.  The search must still end, found or
   failed, so the root thread completes or is reported lost. *)
let test_gc_search_seed seed () =
  let o = Core.Fuzz.run_seed ~gc:true ~drop:0.3 ~seed () in
  if not o.Core.Fuzz.f_ok then
    Alcotest.failf "seed %d: %s" seed (Pinned.verdict_string o.Core.Fuzz.f_verdict)

(* The shrinker minimises the plan as it ran.  This seed's own plan
   passes within the budget; only the forced 30% loss fails it, because
   retransmissions push the run past the budget.  Forcing the loss back
   onto every candidate would make removing it look harmless, leaving a
   "minimal" plan that passes on its own. *)
let test_shrunk_plan_reproduces () =
  let seed = 76 and max_events = 25 in
  let ok ?drop ?plan () =
    (Core.Fuzz.run_seed ?drop ?plan ~max_events ~seed ()).Core.Fuzz.f_ok
  in
  check Alcotest.bool "the seed's own plan passes" true (ok ());
  let failing = Core.Fuzz.run_seed ~drop:0.3 ~max_events ~seed () in
  check Alcotest.bool "the forced loss fails it" false failing.Core.Fuzz.f_ok;
  let minimal =
    Core.Fuzz.shrink ~drop:0.3 ~max_events ~seed failing.Core.Fuzz.f_plan
  in
  check Alcotest.bool
    (Printf.sprintf "minimal plan %s fails on its own" (P.to_string minimal))
    false
    (ok ~plan:minimal ())

(* A plan spec naming what no plan can mean is refused: a probability
   (drop, dup, delay P) outside [0, 1] or not a number, and a negative
   or non-finite delay bound.  The bounds themselves are plans. *)
let test_plan_spec_ranges () =
  List.iter
    (fun spec ->
      match P.of_string spec with
      | Ok p -> Alcotest.failf "%S accepted as %S" spec (P.to_string p)
      | Error _ -> ())
    [
      "drop=2"; "dup=1.5"; "drop=-1"; "drop=nan"; "dup=inf"; "drop=-0.000001";
      "delay=1.5:100"; "delay=-0.1:100"; "delay=nan:100"; "delay=0.5:-3";
      "delay=0.5:inf"; "delay=0.5:nan"; "seed=3,drop=0.3,dup=2";
    ];
  match P.of_string "drop=0,dup=1,delay=1:0" with
  | Error e -> Alcotest.failf "the bounds were refused: %s" e
  | Ok p ->
    check (Alcotest.float 0.0) "drop" 0.0 p.P.pl_drop;
    check (Alcotest.float 0.0) "dup" 1.0 p.P.pl_dup;
    check (Alcotest.float 0.0) "delay probability" 1.0 p.P.pl_delay_p;
    check (Alcotest.float 0.0) "delay bound" 0.0 p.P.pl_delay_us

(* windows that cannot happen are refused, an open partition end still
   means no heal, and a node the cluster lacks is refused at creation *)
let test_plan_spec_windows () =
  List.iter
    (fun spec ->
      match P.of_string spec with
      | Ok p -> Alcotest.failf "%S accepted as %S" spec (P.to_string p)
      | Error _ -> ())
    [
      "crash=1@nan"; "crash=1@-5"; "crash=1@100:nan"; "crash=1@1000:500";
      "crash=1@1000:1000"; "part=0|1@nan"; "part=0|1@-1"; "part=0|1@100:nan";
      "part=0|1@200:100"; "part=0|1@100:100";
    ];
  let plan spec =
    match P.of_string spec with
    | Ok p -> p
    | Error e -> Alcotest.failf "%S refused: %s" spec e
  in
  let p = plan "part=0|1@100,crash=1@0:1" in
  check (Alcotest.float 0.0) "an omitted end never heals" infinity
    (List.hd p.P.pl_partitions).P.pt_until_us;
  let nodes spec n = P.check_nodes (plan spec) ~n_nodes:n in
  let verdict = Alcotest.(result unit string) in
  check verdict "nodes in range" (Ok ()) (nodes "part=0|1@100,crash=1@5" 2);
  check verdict "a crash outside"
    (Error "crash node 5 is outside the 2-node cluster")
    (nodes "crash=5@1000:2000" 2);
  check verdict "a partition outside"
    (Error "part node 9 is outside the 2-node cluster")
    (nodes "part=0|9@100:200" 2);
  match
    Core.Cluster.create ~faults:(plan "part=0|9@100:200")
      ~archs:[ Isa.Arch.sparc; Isa.Arch.vax ] ()
  with
  | _ -> Alcotest.fail "a partition outside the cluster was accepted"
  | exception Invalid_argument _ -> ()

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "same seed is deterministic" `Quick
          test_same_seed_is_deterministic;
        Alcotest.test_case "empty plan is bit-identical" `Quick
          test_empty_plan_is_bit_identical;
        Alcotest.test_case "exactly-once moves under 30% loss" `Quick
          test_exactly_once_moves_under_loss;
        Alcotest.test_case "partition heal recovers via search" `Quick
          test_partition_heal_search_recovery;
        Alcotest.test_case "netsim injection hooks" `Quick
          test_netsim_injection_hooks;
        QCheck_alcotest.to_alcotest qcheck_any_seed_is_safe;
        Alcotest.test_case "fuzz outcomes pinned" `Quick
          test_fuzz_outcomes_pinned;
        Alcotest.test_case "gc-mode fuzz outcomes pinned" `Quick
          test_gc_fuzz_outcomes_pinned;
        Alcotest.test_case "evict-mode fuzz outcomes pinned" `Quick
          test_evict_fuzz_outcomes_pinned;
        Alcotest.test_case "combined-mode fuzz outcomes pinned" `Quick
          test_combined_fuzz_outcomes_pinned;
        Alcotest.test_case "gc search ends: seed 11360" `Quick
          (test_gc_search_seed 11360);
        Alcotest.test_case "gc search ends: seed 27931" `Quick
          (test_gc_search_seed 27931);
        Alcotest.test_case "shrunk plan reproduces on its own" `Quick
          test_shrunk_plan_reproduces;
        Alcotest.test_case "plan spec refuses impossible probabilities" `Quick
          test_plan_spec_ranges;
        Alcotest.test_case "plan spec refuses impossible windows" `Quick
          test_plan_spec_windows;
      ] );
  ]
