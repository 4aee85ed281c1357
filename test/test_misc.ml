(* Remaining edge cases: monitor fairness, string corner cases, heap
   block reuse, network configuration, disassembler coverage, OIDs. *)

module A = Isa.Arch
module V = Ert.Value

let check = Alcotest.check

(* Monitors wake in FIFO order ------------------------------------------- *)

let fifo_src =
  {|
object Logbook
  var order : int <- 0
  monitor operation enter[who : int] -> [r : int]
    // hold the monitor long enough that the others queue up
    var spin : int <- 0
    loop
      exit when spin >= 30
      spin <- spin + 1
    end loop
    order <- order * 10 + who
    r <- order
  end enter
end Logbook

object Guest
  operation visit[l : Logbook, who : int] -> [r : int]
    r <- l.enter[who]
  end visit
end Guest
|}

let test_monitor_fifo () =
  let cl = Core.Cluster.create ~archs:[ A.vax ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"fifo" fifo_src);
  let log = Core.Cluster.create_object cl ~node:0 ~class_name:"Logbook" in
  let spawn who =
    let g = Core.Cluster.create_object cl ~node:0 ~class_name:"Guest" in
    Core.Cluster.spawn cl ~node:0 ~target:g ~op:"visit"
      ~args:[ V.Vref log; V.Vint (Int32.of_int who) ]
  in
  let t1 = spawn 1 and t2 = spawn 2 and t3 = spawn 3 in
  Core.Cluster.run cl;
  let final t =
    match Core.Cluster.result cl t with
    | Some (Some (V.Vint v)) -> Int32.to_int v
    | _ -> Alcotest.fail "guest did not finish"
  in
  (* the thread that entered last sees the full order; waiters are woken
     in their arrival (queue) order: 1, then 2, then 3 *)
  check Alcotest.int "arrival order preserved" 123 (max (final t1) (max (final t2) (final t3)))

(* Strings ------------------------------------------------------------------ *)

let test_string_edges () =
  let src =
    {|
object Main
  operation start[] -> [r : int]
    var empty : string <- ""
    var s : string <- empty + "" + "x" + ""
    var ok : int <- 0
    if empty == "" then
      ok <- ok + 1
    end if
    if s == "x" then
      ok <- ok + 10
    end if
    if empty != s then
      ok <- ok + 100
    end if
    r <- ok
  end start
end Main
|}
  in
  List.iter
    (fun arch ->
      let cl = Core.Cluster.create ~archs:[ arch ] () in
      ignore (Core.Cluster.compile_and_load cl ~name:"str" src);
      let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
      let t = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
      match Core.Cluster.run_until_result cl t with
      | Some (V.Vint 111l) -> ()
      | _ -> Alcotest.failf "%s: string edge cases failed" arch.A.id)
    [ A.vax; A.sparc ]

(* Heap block reuse ----------------------------------------------------------- *)

let test_heap_reuse () =
  let mem = Isa.Memory.create ~endian:Isa.Endian.Big ~size:(1 lsl 16) in
  let heap = Ert.Heap.create ~mem ~start:0x1000 in
  let a = Ert.Heap.alloc heap 64 in
  Ert.Heap.free heap ~addr:a ~size:64;
  let b = Ert.Heap.alloc heap 64 in
  check Alcotest.int "freed block is reused" a b;
  let c = Ert.Heap.alloc heap 64 in
  if c = b then Alcotest.fail "live block must not be reused";
  check Alcotest.bool "zeroed on reuse" true (Isa.Memory.load32 mem b = 0l)

(* Disassembler smoke over everything ------------------------------------------- *)

let test_disasm_all () =
  let prog =
    Emc.Compile.compile_exn ~name:"dis" ~archs:A.all Core.Workloads.intranode_src
  in
  Array.iter
    (fun (cc : Emc.Compile.compiled_class) ->
      List.iter
        (fun (_, (art : Emc.Compile.arch_artifact)) ->
          let listing = Isa.Disasm.listing art.Emc.Compile.aa_code in
          if String.length listing < 50 then Alcotest.fail "suspiciously short listing";
          (* every bus-stop PC disassembles *)
          Array.iter
            (fun (e : Emc.Busstop.entry) ->
              ignore (Isa.Disasm.insn_at art.Emc.Compile.aa_code e.Emc.Busstop.be_pc))
            art.Emc.Compile.aa_stops.Emc.Busstop.bt_entries)
        cc.Emc.Compile.cc_arts)
    prog.Emc.Compile.p_classes

(* OIDs --------------------------------------------------------------------------- *)

let test_oid_spaces () =
  let data = Ert.Oid.fresh_data ~node_id:3 ~serial:42 in
  check Alcotest.bool "data oid" true (Ert.Oid.is_data data);
  check Alcotest.bool "not code" false (Ert.Oid.is_code data);
  check (Alcotest.option Alcotest.int) "creator" (Some 3) (Ert.Oid.creator_node data);
  let db = Emc.Program_db.create () in
  let code = Emc.Program_db.assign db ~program:"p" ~class_name:"C" in
  check Alcotest.bool "code oid" true (Ert.Oid.is_code code);
  check Alcotest.bool "spaces disjoint" false (Ert.Oid.is_data code);
  check (Alcotest.option Alcotest.int) "wide creator" (Some 1999)
    (Ert.Oid.creator_node (Ert.Oid.fresh_data ~node_id:1999 ~serial:7));
  (match Ert.Oid.fresh_data ~node_id:Ert.Oid.max_nodes ~serial:1 with
  | _ -> Alcotest.fail "node id range must be enforced"
  | exception Invalid_argument _ -> ())

(* Conversion stats ---------------------------------------------------------------- *)

let test_conversion_tally () =
  let s = Enet.Conversion_stats.create () in
  Enet.Conversion_stats.add_calls s 10;
  Enet.Conversion_stats.add_bytes s 5;
  check (Alcotest.float 0.001) "calls per byte" 2.0 (Enet.Conversion_stats.calls_per_byte s);
  Enet.Conversion_stats.reset s;
  check Alcotest.int "reset" 0 (Enet.Conversion_stats.calls s)

let suites =
  [
    ( "misc",
      [
        Alcotest.test_case "monitor FIFO fairness" `Quick test_monitor_fifo;
        Alcotest.test_case "string edge cases" `Quick test_string_edges;
        Alcotest.test_case "heap block reuse" `Quick test_heap_reuse;
        Alcotest.test_case "disassembler covers all code" `Quick test_disasm_all;
        Alcotest.test_case "oid spaces" `Quick test_oid_spaces;
        Alcotest.test_case "conversion stats" `Quick test_conversion_tally;
      ] );
  ]
