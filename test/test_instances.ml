(* Code instances and migration bridging (DESIGN.md §16): threads moving
   between nodes that run differently-optimized instances of the same
   code.  Covers a qcheck property — a thread evicted mid-loop between
   -O0 and -O2 nodes, across random architecture pairs, produces the
   same result as an unmigrated run with every source-level action
   (a print per iteration) executed exactly once — plus a directed
   bridge landing (the parked stop is elided at the destination, so the
   thread resumes through a compiled fragment), re-migration from
   *inside* a bridge fragment, and a pinned trace of a mixed-level
   cluster. *)

module A = Isa.Arch
module V = Ert.Value
module K = Ert.Kernel
module T = Ert.Thread
module E = Core.Events
module W = Core.Workloads

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Each iteration performs one observable action (the print syscall) —
   which also puts a syscall-bearing bus stop in the loop block, so -O2
   elides the back-edge poll stop and a thread parked there has no exact
   correspondent in the -O2 instance. *)
let loop_src =
  {|
object Worker
  operation work[n : int] -> [r : int]
    var acc : int <- 0
    var i : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      print[i]
      acc <- acc + i
    end loop
    r <- acc
  end work
end Worker
|}

let seg_of_tid k tid =
  List.find_opt (fun s -> s.T.seg_thread = tid) (K.segments k)

(* every printed line across every node, numerically sorted: migration
   may split the sequence across hosts but must never duplicate or drop
   an iteration *)
let printed_actions cl =
  let buf = Buffer.create 256 in
  for i = 0 to Core.Cluster.n_nodes cl - 1 do
    Buffer.add_string buf (Core.Cluster.output cl ~node:i)
  done;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun s -> s <> "")
  |> List.map int_of_string
  |> List.sort compare

let expected_actions n = List.init n (fun i -> i + 1)

let check_exact ~n r actions =
  check
    (Alcotest.option Alcotest.int)
    "result" (Some (n * (n + 1) / 2))
    (match r with Some (V.Vint v) -> Some (Int32.to_int v) | _ -> None);
  check (Alcotest.list Alcotest.int) "each action exactly once"
    (expected_actions n) actions

(* Build a two-node cluster at the given levels, start the loop worker
   on node 0, evict it to node 1 after [pre] events, and run to the end.
   Returns [(result, actions, threads_bridged)].  The quantum matters:
   only a preempted thread can have its eviction trap fire at the loop's
   poll stop (cooperative parking always lands on the print syscall). *)
let run_evicted ~archs ~levels ~n ~pre =
  let cl = Core.Cluster.create ~quantum:3 ~archs () in
  List.iteri (fun i l -> Core.Cluster.set_opt_level cl ~node:i l) levels;
  ignore (Core.Cluster.compile_and_load cl ~name:"instances" loop_src);
  let w = Core.Cluster.create_object cl ~node:0 ~class_name:"Worker" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:w ~op:"work"
      ~args:[ V.Vint (Int32.of_int n) ]
  in
  let k0 = Core.Cluster.kernel cl 0 in
  for _ = 1 to pre do
    ignore (Core.Cluster.step_once cl)
  done;
  (match seg_of_tid k0 tid with
  | Some s when s.T.seg_live ->
    Core.Cluster.evict_thread cl ~node:0 ~seg_id:s.T.seg_id ~dest:1
  | Some _ | None -> ());
  let r = Core.Cluster.run_until_result cl tid in
  (r, printed_actions cl, Core.Cluster.total_counter cl (fun c -> c.E.c_bridged))

(* ---------------------------------------------------------------- *)
(* qcheck: mid-loop -O0 <-> -O2 migration is exact, any arch pair     *)
(* ---------------------------------------------------------------- *)

let all_archs = Array.of_list A.all

let migration_gen =
  QCheck.Gen.(
    let n_archs = Array.length all_archs in
    tup5 (int_range 0 (n_archs - 1)) (int_range 0 (n_archs - 1)) bool
      (int_range 4 16) (int_range 0 60))

let qcheck_exact_across_instances =
  QCheck.Test.make
    ~name:"mid-loop -O0<->-O2 migration: exact result, every action once"
    ~count:60 (QCheck.make migration_gen) (fun (ai, bi, swap, n, pre) ->
      let archs = [ all_archs.(ai); all_archs.(bi) ] in
      let levels =
        if swap then [ Emc.Opt.O2; Emc.Opt.O0 ] else [ Emc.Opt.O0; Emc.Opt.O2 ]
      in
      let r, actions, _ = run_evicted ~archs ~levels ~n ~pre in
      r = Some (V.Vint (Int32.of_int (n * (n + 1) / 2)))
      && actions = expected_actions n)

(* ---------------------------------------------------------------- *)
(* directed: a landing at an elided stop goes through a fragment      *)
(* ---------------------------------------------------------------- *)

(* Which event the eviction trap lands on decides the parked stop (the
   loop's print stop or its poll stop), so scan eviction points until a
   run actually bridges; the qcheck property above already holds at all
   of them. *)
let test_bridged_landing () =
  let n = 12 in
  let rec scan pre =
    if pre > 80 then Alcotest.fail "no eviction point parked at the poll stop";
    let r, actions, bridged =
      run_evicted ~archs:[ A.sparc; A.vax ]
        ~levels:[ Emc.Opt.O0; Emc.Opt.O2 ] ~n ~pre
    in
    check_exact ~n r actions;
    if bridged = 0 then scan (pre + 1)
  in
  scan 0

(* ---------------------------------------------------------------- *)
(* directed: re-migration from inside a bridge fragment               *)
(* ---------------------------------------------------------------- *)

(* One scenario run: evict node 0 -> 1 after [pre] events, then evict
   again the instant the thread lands on node 1 — it is still parked at
   the bridge fragment's poll (when the first landing bridged), so the
   second capture reads the fragment's stop and ships the thread to
   node 2, whose -O2 instance elides that stop too: a second bridge. *)
let double_evict ~n ~pre =
  let cl = Core.Cluster.create ~quantum:3 ~archs:[ A.sparc; A.vax; A.sun3 ] () in
  Core.Cluster.set_opt_level cl ~node:1 Emc.Opt.O2;
  Core.Cluster.set_opt_level cl ~node:2 Emc.Opt.O2;
  ignore (Core.Cluster.compile_and_load cl ~name:"rebridge" loop_src);
  let w = Core.Cluster.create_object cl ~node:0 ~class_name:"Worker" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:w ~op:"work"
      ~args:[ V.Vint (Int32.of_int n) ]
  in
  let k0 = Core.Cluster.kernel cl 0 in
  for _ = 1 to pre do
    ignore (Core.Cluster.step_once cl)
  done;
  (match seg_of_tid k0 tid with
  | Some s when s.T.seg_live ->
    Core.Cluster.evict_thread cl ~node:0 ~seg_id:s.T.seg_id ~dest:1;
    let k1 = Core.Cluster.kernel cl 1 in
    let rec await budget =
      if budget = 0 then Alcotest.fail "worker never landed on node 1"
      else
        match seg_of_tid k1 tid with
        | Some s -> s
        | None ->
          ignore (Core.Cluster.step_once cl);
          await (budget - 1)
    in
    let s1 = await 20000 in
    Core.Cluster.evict_thread cl ~node:1 ~seg_id:s1.T.seg_id ~dest:2
  | Some _ | None -> ());
  let r = Core.Cluster.run_until_result cl tid in
  ( r,
    printed_actions cl,
    Core.Cluster.total_counter cl (fun c -> c.E.c_bridged) )

let test_bridge_from_bridge () =
  let n = 12 in
  let rec scan pre =
    if pre > 80 then
      Alcotest.fail "no eviction point yielded a bridge-from-bridge chain";
    let r, actions, bridged = double_evict ~n ~pre in
    check_exact ~n r actions;
    (* two bridged landings = the second capture happened inside the
       first landing's fragment and was itself re-bridged at node 2 *)
    if bridged < 2 then scan (pre + 1)
  in
  scan 0

(* ---------------------------------------------------------------- *)
(* fragment cache: misses compile, repeats hit, restart clears        *)
(* ---------------------------------------------------------------- *)

let test_fragment_cache () =
  let n = 12 in
  (* find a bridging eviction point, then replay it with a second
     worker evicted at the same point: same parked stop, same target
     instance, so the second landing reuses the first one's fragment *)
  let run pre =
    let cl = Core.Cluster.create ~quantum:3 ~archs:[ A.sparc; A.vax ] () in
    Core.Cluster.set_opt_level cl ~node:1 Emc.Opt.O2;
    ignore (Core.Cluster.compile_and_load cl ~name:"fragcache" loop_src);
    let spawn () =
      let w = Core.Cluster.create_object cl ~node:0 ~class_name:"Worker" in
      Core.Cluster.spawn cl ~node:0 ~target:w ~op:"work"
        ~args:[ V.Vint (Int32.of_int n) ]
    in
    let tid1 = spawn () in
    let k0 = Core.Cluster.kernel cl 0 in
    for _ = 1 to pre do
      ignore (Core.Cluster.step_once cl)
    done;
    (match seg_of_tid k0 tid1 with
    | Some s when s.T.seg_live ->
      Core.Cluster.evict_thread cl ~node:0 ~seg_id:s.T.seg_id ~dest:1
    | Some _ | None -> ());
    ignore (Core.Cluster.run_until_result cl tid1);
    let tid2 = spawn () in
    for _ = 1 to pre do
      ignore (Core.Cluster.step_once cl)
    done;
    (match seg_of_tid k0 tid2 with
    | Some s when s.T.seg_live ->
      Core.Cluster.evict_thread cl ~node:0 ~seg_id:s.T.seg_id ~dest:1
    | Some _ | None -> ());
    ignore (Core.Cluster.run_until_result cl tid2);
    (cl, Core.Cluster.bridge_stats cl)
  in
  let rec scan pre =
    if pre > 80 then Alcotest.fail "no eviction point bridged";
    let cl, (hits, misses) = run pre in
    if hits + misses = 0 then scan (pre + 1) else (cl, hits, misses)
  in
  let cl, hits, misses = scan 0 in
  (* the first landing compiled the fragment; the identical second
     landing must find it *)
  check Alcotest.int "one fragment compiled" 1 misses;
  if hits < 1 then Alcotest.failf "repeat landing missed the cache (%d hits)" hits;
  let b = Mobility.Code_repository.bridge_cache (Core.Cluster.repository cl) ~node:1 in
  if Ert.Bridge.count b < 1 then Alcotest.fail "fragment not retained";
  (* fragments address kernel text, so a restart must drop them while
     the cache's history survives *)
  Core.Cluster.crash_node cl 1;
  Core.Cluster.restart_node cl 1;
  check Alcotest.int "fragments cleared by restart" 0 (Ert.Bridge.count b);
  check Alcotest.int "hit history survives restart" hits (Ert.Bridge.hits b)

(* ---------------------------------------------------------------- *)
(* mixed-level cluster, pinned                                         *)
(* ---------------------------------------------------------------- *)

let spin_and_print_src =
  {|
object Worker
  operation work[rounds : int, spins : int] -> [r : int]
    var i : int <- 0
    var j : int <- 0
    var acc : int <- 0
    loop
      exit when i >= rounds
      i <- i + 1
      print[i]
      j <- 0
      loop
        exit when j >= spins
        j <- j + 1
        acc <- acc + j - (j / 2) * 2
      end loop
    end loop
    r <- acc * 100 + thisnode
  end work
end Worker
|}

let run_mixed () =
  let archs = [ A.sparc; A.vax; A.sun3; A.hp9000_433 ] in
  let cl = Core.Cluster.create ~quantum:40 ~archs () in
  List.iteri
    (fun i l -> Core.Cluster.set_opt_level cl ~node:i l)
    [ Emc.Opt.O0; Emc.Opt.O2; Emc.Opt.O0; Emc.Opt.O2 ];
  let trace = Buffer.create 4096 in
  Core.Cluster.set_trace cl (fun line ->
      Buffer.add_string trace line;
      Buffer.add_char trace '\n');
  ignore (Core.Cluster.compile_and_load cl ~name:"mixed" spin_and_print_src);
  let workers =
    List.init 4 (fun _ ->
        let w = Core.Cluster.create_object cl ~node:0 ~class_name:"Worker" in
        Core.Cluster.spawn cl ~node:0 ~target:w ~op:"work"
          ~args:[ V.Vint 3l; V.Vint 50l ])
  in
  Core.Cluster.set_balancer cl ~every_us:400.0 (W.hot_spot_balancer cl);
  Core.Cluster.run cl;
  let digest tid =
    match Core.Cluster.result cl tid with
    | Some (Some (V.Vint v)) -> Int32.to_int v
    | _ -> Alcotest.fail "mixed-level worker did not complete"
  in
  ( List.map digest workers,
    Core.Cluster.global_time_us cl,
    Buffer.contents trace,
    Core.Cluster.total_counter cl (fun c -> c.E.c_bridged),
    Core.Cluster.bridge_stats cl )

(* pinned to the values the sharded engine's last release recorded,
   where 1, 2 and 4 shards agreed on them *)
let test_mixed_levels_pinned () =
  let digests, time, trace, bridged, (hits, misses) = run_mixed () in
  check Alcotest.string "run"
    "digests 7501 7502 7500 7500, time 71158.93194444463, \
     trace 5eb870d61df1b01978ef2d3f3fd682d6, bridged 0, fragment cache 0/0"
    (Printf.sprintf
       "digests %s, time %.17g, trace %s, bridged %d, fragment cache %d/%d"
       (String.concat " " (List.map string_of_int digests))
       time (Pinned.digest trace) bridged hits misses)

let suites =
  [
    ( "instances",
      [
        qcheck qcheck_exact_across_instances;
        Alcotest.test_case "bridged landing at an elided stop" `Quick
          test_bridged_landing;
        Alcotest.test_case "re-migration from inside a bridge" `Quick
          test_bridge_from_bridge;
        Alcotest.test_case "fragment cache hits, cleared on restart" `Quick
          test_fragment_cache;
        Alcotest.test_case "mixed levels pinned" `Quick
          test_mixed_levels_pinned;
      ] );
  ]
