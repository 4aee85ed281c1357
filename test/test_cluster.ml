(* Cluster-level behaviour: the measured claims behind the benches, RPC
   argument marshalling, the code repository, and location services. *)

module A = Isa.Arch
module V = Ert.Value
module W = Core.Workloads

let check = Alcotest.check

let test_enhanced_costs_more () =
  let orig =
    W.measure_roundtrip ~protocol:Core.Cluster.Original ~home:A.sparc ~dest:A.sparc
      ~iters:2 ()
  in
  let enh = W.measure_roundtrip ~home:A.sparc ~dest:A.sparc ~iters:2 () in
  if enh.W.rt_us_per_trip <= orig.W.rt_us_per_trip then
    Alcotest.fail "the enhanced system must cost more than the original";
  let overhead = (enh.W.rt_us_per_trip -. orig.W.rt_us_per_trip) /. orig.W.rt_us_per_trip in
  if overhead < 0.3 || overhead > 1.2 then
    Alcotest.failf "overhead %.0f%% is out of the paper's band (about 60%%)"
      (overhead *. 100.0);
  if enh.W.rt_conversion_calls <= orig.W.rt_conversion_calls then
    Alcotest.fail "the enhanced system must perform more conversion calls"

let test_conversion_cut_near_half () =
  let orig =
    W.measure_roundtrip ~protocol:Core.Cluster.Original ~home:A.sparc ~dest:A.sparc
      ~iters:2 ()
  in
  let naive = W.measure_roundtrip ~wire_impl:Enet.Wire.Naive ~home:A.sparc ~dest:A.sparc ~iters:2 () in
  let fast =
    W.measure_roundtrip ~wire_impl:Enet.Wire.Plan ~home:A.sparc ~dest:A.sparc
      ~iters:2 ()
  in
  let cut =
    (naive.W.rt_us_per_trip -. fast.W.rt_us_per_trip)
    /. (naive.W.rt_us_per_trip -. orig.W.rt_us_per_trip)
  in
  if cut < 0.3 || cut > 0.7 then
    Alcotest.failf "conversion ablation cut %.0f%%, expected near the paper's 50%%"
      (cut *. 100.0)

let test_measure_deterministic () =
  let a = W.measure_roundtrip ~home:A.sparc ~dest:A.vax ~iters:2 () in
  let b = W.measure_roundtrip ~home:A.sparc ~dest:A.vax ~iters:2 () in
  check (Alcotest.float 0.0) "identical virtual cost" a.W.rt_us_per_trip b.W.rt_us_per_trip

let test_intranode_migration_free () =
  List.iter
    (fun arch ->
      let local = W.measure_intranode ~arch ~migrated:false ~n:300 () in
      let migrated = W.measure_intranode ~arch ~migrated:true ~n:300 () in
      (* the program reads a whole-microsecond clock, so the two runs may
         differ by one tick of truncation — just like 1995 timers *)
      check (Alcotest.float 1.0)
        (arch.A.id ^ ": migrated thread runs at native speed")
        local.W.in_virtual_us migrated.W.in_virtual_us)
    A.all

(* RPC argument marshalling across architectures -------------------------- *)

let rpc_types_src =
  {|
object Server
  var hits : int <- 0
  operation mix[i : int, x : real, s : string, b : bool, o : Server] -> [r : string]
    hits <- hits + 1
    var verdict : string <- "no"
    if i == -7 and x == 2.5 and b and o != nil and s == "ping" then
      verdict <- "ok"
    end if
    r <- verdict + s
  end mix
end Server

object Main
  operation start[] -> [r : string]
    var srv : Server <- new Server
    move srv to 1
    r <- srv.mix[-7, 2.5, "ping", true, srv]
  end start
end Main
|}

let test_rpc_marshals_all_types () =
  List.iter
    (fun dest ->
      let cl = Core.Cluster.create ~archs:[ A.sparc; dest ] () in
      ignore (Core.Cluster.compile_and_load cl ~name:"rpc" rpc_types_src);
      let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
      let tid = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
      match Core.Cluster.run_until_result cl tid with
      | Some (V.Vstr s) -> check Alcotest.string (dest.A.id ^ " result") "okping" s
      | other ->
        Alcotest.failf "%s: unexpected result %s" dest.A.id
          (match other with
          | Some v -> Format.asprintf "%a" V.pp v
          | None -> "none"))
    [ A.vax; A.sun3; A.hp9000_385 ]

let test_where_is_tracks_moves () =
  let src =
    {|
object Ball
  operation bounce[] -> [r : int]
    r <- thisnode
  end bounce
end Ball

object Main
  operation start[] -> [r : int]
    var b : Ball <- new Ball
    move b to 2
    move b to 1
    r <- b.bounce[]
  end start
end Main
|}
  in
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax; A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"whereis" src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  check (Alcotest.option Alcotest.int) "main starts on node 0" (Some 0)
    (Core.Cluster.where_is cl main);
  let tid = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
  (match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) -> check Alcotest.int "bounce ran on node 1" 1 (Int32.to_int v)
  | _ -> Alcotest.fail "no result");
  check (Alcotest.option Alcotest.int) "main stayed" (Some 0) (Core.Cluster.where_is cl main)

let test_code_repository_fetches () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"repo" W.table1_src);
  let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip"
      ~args:[ V.Vint 1l; V.Vint 2l ]
  in
  ignore (Core.Cluster.run_until_result cl tid);
  let repo = Core.Cluster.repository cl in
  (* each node fetches the Agent code object exactly once, on demand *)
  check Alcotest.int "node 0 fetches" 1 (Mobility.Code_repository.fetches_by_node repo 0);
  check Alcotest.int "node 1 fetches" 1 (Mobility.Code_repository.fetches_by_node repo 1)

let test_root_result_types () =
  let src =
    {|
object Main
  operation ival[] -> [r : int]
    r <- 5
  end ival
  operation rval[] -> [r : real]
    r <- 1.25
  end rval
  operation sval[] -> [r : string]
    r <- "emerald"
  end sval
  operation bval[] -> [r : bool]
    r <- true
  end bval
  operation noval[]
    print["fire and forget"]
  end noval
end Main
|}
  in
  let cl = Core.Cluster.create ~archs:[ A.vax ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"results" src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let run op = Core.Cluster.run_until_result cl (Core.Cluster.spawn cl ~node:0 ~target:main ~op ~args:[]) in
  (match run "ival" with
  | Some (V.Vint 5l) -> ()
  | _ -> Alcotest.fail "ival");
  (match run "rval" with
  | Some (V.Vreal x) when x = 1.25 -> ()
  | _ -> Alcotest.fail "rval");
  (match run "sval" with
  | Some (V.Vstr "emerald") -> ()
  | _ -> Alcotest.fail "sval");
  (match run "bval" with
  | Some (V.Vbool true) -> ()
  | _ -> Alcotest.fail "bval");
  match run "noval" with
  | None -> ()
  | Some _ -> Alcotest.fail "noval should have no result"

let bump_src =
  {|
object Cell
  var v : int <- 0
  operation bump[n : int] -> [r : int]
    var i : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      v <- v + 1
    end loop
    r <- v
  end bump
end Cell
|}

(* [group_move] and [evict_thread] check the destination before they
   capture anything: each refused call names itself, leaves the object
   on node 0 and emits no event, and the thread inside the object then
   runs to completion there *)
let test_dest_outside_cluster_refused () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"dest" bump_src);
  let cell = Core.Cluster.create_object cl ~node:0 ~class_name:"Cell" in
  let tid = Core.Cluster.spawn cl ~node:0 ~target:cell ~op:"bump" ~args:[ V.Vint 100l ] in
  let seg_id =
    match Ert.Kernel.segments (Core.Cluster.kernel cl 0) with
    | [ seg ] -> seg.Ert.Thread.seg_id
    | _ -> Alcotest.fail "expected one segment on node 0"
  in
  let events = ref 0 in
  Core.Cluster.subscribe_events cl (fun _ -> incr events);
  let refused fn dest call =
    match call () with
    | () -> Alcotest.failf "%s accepted destination %d" fn dest
    | exception Invalid_argument msg ->
      check Alcotest.string (fn ^ " names itself")
        (Printf.sprintf "Cluster.%s: node %d is outside the 2-node cluster" fn dest) msg
  in
  refused "group_move" (-1) (fun () -> Core.Cluster.group_move cl ~node:0 ~dest:(-1) [ cell ]);
  refused "group_move" 5 (fun () -> Core.Cluster.group_move cl ~node:0 ~dest:5 [ cell ]);
  refused "evict_thread" 5 (fun () -> Core.Cluster.evict_thread cl ~node:0 ~seg_id ~dest:5);
  check Alcotest.int "no event" 0 !events;
  check (Alcotest.option Alcotest.int) "still resident on node 0" (Some 0)
    (Core.Cluster.where_is cl cell);
  (match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint 100l) -> ()
  | _ -> Alcotest.fail "the thread did not run to completion");
  check (Alcotest.option Alcotest.int) "resident on node 0 after the run" (Some 0)
    (Core.Cluster.where_is cl cell)

(* a cluster of no nodes is refused by [create] itself, not by a layer
   it builds *)
let test_no_nodes_refused () =
  match Core.Cluster.create ~archs:[] () with
  | _ -> Alcotest.fail "an empty architecture list was accepted"
  | exception Invalid_argument msg ->
    check Alcotest.string "create names itself" "Cluster.create: archs is empty" msg

let suites =
  [
    ( "cluster",
      [
        Alcotest.test_case "enhanced costs ~60% more" `Quick test_enhanced_costs_more;
        Alcotest.test_case "conversion ablation near 50%" `Quick
          test_conversion_cut_near_half;
        Alcotest.test_case "virtual measurements deterministic" `Quick
          test_measure_deterministic;
        Alcotest.test_case "migration leaves native speed intact" `Quick
          test_intranode_migration_free;
        Alcotest.test_case "RPC marshals every value type" `Quick
          test_rpc_marshals_all_types;
        Alcotest.test_case "where_is tracks moves" `Quick test_where_is_tracks_moves;
        Alcotest.test_case "code repository fetch accounting" `Quick
          test_code_repository_fetches;
        Alcotest.test_case "root result types" `Quick test_root_result_types;
        Alcotest.test_case "a destination outside the cluster is refused" `Quick
          test_dest_outside_cluster_refused;
        Alcotest.test_case "an empty architecture list is refused" `Quick
          test_no_nodes_refused;
      ] );
  ]
