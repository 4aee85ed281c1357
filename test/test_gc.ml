(* Garbage-collector tests: pointer identification through the bus-stop
   templates, with threads suspended mid-computation. *)

module A = Isa.Arch
module V = Ert.Value

let check = Alcotest.check

let garbage_src =
  {|
object Cell
  var v : int <- 0
  operation set[x : int]
    v <- x
  end set
  operation get[] -> [r : int]
    r <- v
  end get
end Cell

object Main
  var keep : Cell <- nil

  operation churn[n : int] -> [r : int]
    var i : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      var tmp : Cell <- new Cell
      tmp.set[i]
      var s : string <- "garbage " + "string"
      if s == "" then
        keep <- tmp
      end if
    end loop
    keep <- new Cell
    keep.set[42]
    r <- keep.get[]
  end churn
end Main
|}

let setup archs =
  let cl = Core.Cluster.create ~archs () in
  ignore (Core.Cluster.compile_and_load cl ~name:"gc" garbage_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  (cl, main)

let test_collects_garbage () =
  List.iter
    (fun arch ->
      let cl, main = setup [ arch ] in
      let tid =
        Core.Cluster.spawn cl ~node:0 ~target:main ~op:"churn"
          ~args:[ V.Vint 50l ]
      in
      let r = Core.Cluster.run_until_result cl tid in
      check Alcotest.int (arch.A.id ^ " result") 42
        (match r with
        | Some (V.Vint v) -> Int32.to_int v
        | _ -> -1);
      let k = Core.Cluster.kernel cl 0 in
      let stats = Ert.Gc.collect ~extra_roots:[ main ] k in
      (* 50 dead cells and 100+ dead strings must go *)
      if stats.Ert.Gc.gc_swept < 50 then
        Alcotest.failf "%s: expected >= 50 swept blocks, got %d" arch.A.id
          stats.Ert.Gc.gc_swept;
      if stats.Ert.Gc.gc_bytes_freed <= 0 then Alcotest.fail "no bytes freed")
    A.all

let test_preserves_reachable_mid_run () =
  List.iter
    (fun arch ->
      let cl, main = setup [ arch ] in
      let tid =
        Core.Cluster.spawn cl ~node:0 ~target:main ~op:"churn"
          ~args:[ V.Vint 30l ]
      in
      (* interleave collection with execution: every live value the thread
         still needs is protected by the per-stop templates *)
      let k = Core.Cluster.kernel cl 0 in
      let steps = ref 0 in
      let rec go () =
        match Core.Cluster.result cl tid with
        | Some r -> r
        | None ->
          if not (Core.Cluster.step_once cl) then Alcotest.fail "quiescent without result";
          incr steps;
          if !steps mod 7 = 0 then ignore (Ert.Gc.collect ~extra_roots:[ main ] k);
          go ()
      in
      let r = go () in
      check Alcotest.int (arch.A.id ^ " result") 42
        (match r with
        | Some (V.Vint v) -> Int32.to_int v
        | _ -> -1))
    [ A.vax; A.sun3; A.sparc ]

let test_gc_idempotent () =
  let cl, main = setup [ A.sparc ] in
  let tid = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"churn" ~args:[ V.Vint 10l ] in
  ignore (Core.Cluster.run_until_result cl tid);
  let k = Core.Cluster.kernel cl 0 in
  ignore (Ert.Gc.collect ~extra_roots:[ main ] k);
  let second = Ert.Gc.collect ~extra_roots:[ main ] k in
  check Alcotest.int "second collection sweeps nothing" 0 second.Ert.Gc.gc_swept

let test_gc_after_migration () =
  (* after an object moves away, its stale blocks on the source are garbage
     (the forwarding proxy is kept alive only while referenced) *)
  let src =
    {|
object Agent
  operation go[] -> [r : int]
    var s : string <- "payload"
    move self to 1
    if s == "payload" then
      r <- 7
    else
      r <- 0
    end if
  end go
end Agent

object Main
  operation start[] -> [r : int]
    var a : Agent <- new Agent
    r <- a.go[]
  end start
end Main
|}
  in
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"gcmove" src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let tid = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
  let r = Core.Cluster.run_until_result cl tid in
  check Alcotest.int "result" 7
    (match r with
    | Some (V.Vint v) -> Int32.to_int v
    | _ -> -1);
  let s0 = Ert.Gc.collect ~extra_roots:[ main ] (Core.Cluster.kernel cl 0) in
  let s1 = Ert.Gc.collect (Core.Cluster.kernel cl 1) in
  if s0.Ert.Gc.gc_swept = 0 then Alcotest.fail "source node should have garbage";
  ignore s1

let test_automatic_collection () =
  (* a tight threshold forces collections during the run; the program must
     be unaffected and collections must actually happen *)
  let cl = Core.Cluster.create ~gc_threshold:(8 * 1024) ~archs:[ A.sparc; A.vax ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"autogc" garbage_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:main ~op:"churn" ~args:[ V.Vint 200l ]
  in
  (match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint 42l) -> ()
  | _ -> Alcotest.fail "wrong result under automatic GC");
  if Core.Cluster.total_counter cl (fun c -> c.Core.Events.c_collections) = 0 then
    Alcotest.fail "expected at least one automatic collection"

(* ----------------------------------------------------------------------- *)
(* root-scan regressions *)

let test_parked_monitor_waiter_keeps_monitor () =
  (* a blocked waiter's monitor object is a GC root carried by the
     waiting state itself.  Fabricate a never-dispatched segment (the
     migration-landing shape) and park it on an otherwise-unreferenced
     Cell's monitor queue with a timed wait; collect; then expire the
     timeout.  Before the fix, segment_roots dropped Blocked_monitor
     state for spawn-carrying segments, so the Cell was swept mid-wait
     and the wake path read freed memory. *)
  let cl, main = setup [ A.sparc ] in
  let k = Core.Cluster.kernel cl 0 in
  let mon = Core.Cluster.create_object cl ~node:0 ~class_name:"Cell" in
  let mon_addr =
    match Ert.Kernel.find_object k mon with
    | Some a -> a
    | None -> Alcotest.fail "monitor object not resident"
  in
  let seg =
    Ert.Kernel.spawn_exact k
      ~spawn:
        {
          Ert.Thread.si_target = main;
          si_class = Ert.Kernel.class_of_object k mon_addr;
          si_method = 0;
          si_args = [];
        }
      ~link:None ~thread:4242 ~seg_id:4242
      ~status:(Ert.Thread.Parked Isa.Suspend.Run)
  in
  Ert.Kernel.monitor_enqueue_blocked k ~obj_addr:mon_addr ~deadline:10_000.0
    seg;
  ignore (Ert.Gc.collect ~extra_roots:[ main ] k : Ert.Gc.stats);
  (match Ert.Kernel.find_object k mon with
  | Some _ -> ()
  | None -> Alcotest.fail "monitor object swept while a waiter was queued");
  check Alcotest.int "one wait expired" 1
    (Ert.Kernel.expire_timeouts k ~now:20_000.0);
  match seg.Ert.Thread.seg_status with
  | Ert.Thread.Parked _ -> ()
  | st ->
    Alcotest.failf "waiter not runnable after wake: %s"
      (Format.asprintf "%a" Ert.Thread.pp_status st)

(* the collector reads every field and element through
   [Memory.load32_bits]: a stored address with bit 31 set must come back
   as the same positive value in either byte order, never folded
   negative by a signed Int32 conversion *)
let vector_elements_unsigned_prop =
  QCheck.Test.make ~count:100
    ~name:"vector element tracing is unsigned over 32-bit patterns"
    QCheck.(list_of_size Gen.(1 -- 40) (map Int32.of_int int))
    (fun raw ->
      let base = Isa.Memory.low_bound in
      List.for_all
        (fun endian ->
          let mem =
            Isa.Memory.create ~endian ~size:(base + (4 * List.length raw))
          in
          List.iteri (fun i v -> Isa.Memory.store32 mem (base + (4 * i)) v) raw;
          List.mapi (fun i _ -> Isa.Memory.load32_bits mem (base + (4 * i))) raw
          = List.map (fun v -> Int32.to_int v land 0xFFFF_FFFF) raw)
        [ Isa.Endian.Big; Isa.Endian.Little ])

(* ----------------------------------------------------------------------- *)
(* the kernel's block table: address order, slot reuse and insertion *)

let bare_kernel () = Ert.Kernel.create ~node_id:0 ~arch:A.sparc ()

let table k =
  let acc = ref [] in
  Ert.Kernel.iter_blocks k (fun ~addr ~size -> acc := (addr, size) :: !acc);
  List.rev !acc

let string_size s = Emc.Layout.str_bytes + String.length s

(* a 4-character string is monitor-queue-node sized: it reuses an address
   whose first use was a kernel block, which lies between two table
   entries, so the table inserts it in order *)
let test_block_inserted_in_order () =
  let k = bare_kernel () in
  let heap = Ert.Kernel.heap k in
  let first = Ert.Kernel.make_string k "first string" in
  let qnode = Ert.Heap.alloc heap Emc.Layout.qnode_size in
  Ert.Heap.free heap ~addr:qnode ~size:Emc.Layout.qnode_size;
  let second = Ert.Kernel.make_string k "second string" in
  let middle = Ert.Kernel.make_string k "four" in
  check Alcotest.int "the string reuses the kernel block's address" qnode middle;
  if not (first < middle && middle < second) then
    Alcotest.fail "the reused address should lie between the first two blocks";
  check
    Alcotest.(list (pair int int))
    "ascending"
    [ (first, string_size "first string"); (middle, string_size "four");
      (second, string_size "second string") ]
    (table k);
  let s = Ert.Gc.collect k in
  check Alcotest.int "all three swept" 3 s.Ert.Gc.gc_swept;
  check Alcotest.int "bytes freed"
    (string_size "first string" + string_size "four" + string_size "second string")
    s.Ert.Gc.gc_bytes_freed;
  check Alcotest.int "table empty" 0 (Ert.Kernel.block_count k)

(* a freed block keeps its slot; reuse from the size class revives it
   with the new block's size *)
let test_block_revived_with_new_size () =
  let k = bare_kernel () in
  let three = Ert.Kernel.make_string k "abc" in
  check Alcotest.int "3 characters" 11 (Ert.Gc.collect k).Ert.Gc.gc_bytes_freed;
  let four = Ert.Kernel.make_string k "abcd" in
  check Alcotest.int "same address" three four;
  check Alcotest.int "4 characters" 12 (Ert.Gc.collect k).Ert.Gc.gc_bytes_freed

type block_op =
  | Make_string of int  (* characters *)
  | Take_qnode  (* a kernel-owned block from the heap *)
  | Give_qnode of int
  | Free_block of int
  | Free_other of int  (* [free_block] of an address that is not a block *)

let pp_block_op = function
  | Make_string n -> Printf.sprintf "string %d" n
  | Take_qnode -> "take qnode"
  | Give_qnode i -> Printf.sprintf "give qnode %d" i
  | Free_block i -> Printf.sprintf "free block %d" i
  | Free_other i -> Printf.sprintf "free other %d" i

let block_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_block_op ops))
    QCheck.Gen.(
      list_size (1 -- 80)
        (frequency
           [
             (4, map (fun n -> Make_string n) (0 -- 16));
             (1, return Take_qnode);
             (1, map (fun i -> Give_qnode i) nat);
             (2, map (fun i -> Free_block i) nat);
             (1, map (fun i -> Free_other i) nat);
           ]))

(* random allocation and freeing, with kernel blocks of the monitor
   queue node's size interleaved, against a reference map: the table
   lists exactly the map's blocks in strictly ascending address order,
   and freeing an address that is not a block (a freed one, a kernel
   block, the inside of a block) changes nothing *)
let block_table_prop =
  QCheck.Test.make ~count:300
    ~name:"block table == a reference map under random alloc and free" block_ops
    (fun ops ->
      let module M = Map.Make (Int) in
      let k = bare_kernel () in
      let heap = Ert.Kernel.heap k in
      let model = ref M.empty and qnodes = ref [] and freed = ref [] in
      let nth l i = List.nth l (i mod List.length l) in
      let qsize = Emc.Layout.qnode_size in
      let rec ascending = function
        | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
        | [ _ ] | [] -> true
      in
      List.for_all
        (fun op ->
          (match op with
          | Make_string n ->
            let addr = Ert.Kernel.make_string k (String.make n 'x') in
            model := M.add addr (Emc.Layout.str_bytes + n) !model
          | Take_qnode -> qnodes := Ert.Heap.alloc heap qsize :: !qnodes
          | Give_qnode i when !qnodes <> [] ->
            let addr = nth !qnodes i in
            Ert.Heap.free heap ~addr ~size:qsize;
            qnodes := List.filter (( <> ) addr) !qnodes
          | Free_block i when not (M.is_empty !model) ->
            let addr, _ = nth (M.bindings !model) i in
            Ert.Kernel.free_block k addr;
            model := M.remove addr !model;
            freed := addr :: !freed
          | Free_other i ->
            let inside = List.map (fun (a, _) -> a + 4) (M.bindings !model) in
            let candidates =
              List.filter
                (fun a -> not (M.mem a !model))
                (!freed @ !qnodes @ inside @ [ Ert.Heap.brk heap ])
            in
            let live = Ert.Heap.live_bytes heap in
            Ert.Kernel.free_block k (nth candidates i);
            if Ert.Heap.live_bytes heap <> live then
              QCheck.Test.fail_report "free_block of a non-block freed memory"
          | Give_qnode _ | Free_block _ -> ());
          let t = table k in
          ascending t && t = M.bindings !model
          && Ert.Kernel.block_count k = M.cardinal !model)
        ops)

(* ----------------------------------------------------------------------- *)
(* the incremental tier *)

(* run [churn] to completion and leave the heap quiescent, garbage and
   all — the fixture for tier-equivalence checks *)
let churned_kernel () =
  let cl, main = setup [ A.sparc ] in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:main ~op:"churn"
      ~args:[ V.Vint 60l ]
  in
  ignore (Core.Cluster.run_until_result cl tid);
  (Core.Cluster.kernel cl 0, main)

let drive_cycle ?(budget = 64) cy k =
  let rec go n =
    match Ert.Gc.step cy k ~budget with
    | Ert.Gc.Step_more _ -> go (n + 1)
    | Ert.Gc.Step_done { stats; _ } -> (stats, n + 1)
  in
  go 0

(* any budget: the incremental cycle reports exactly the stop-the-world
   live/swept/bytes accounting on an identical quiescent heap *)
let incremental_equivalence_prop =
  QCheck.Test.make ~count:20
    ~name:"incremental == stop-the-world on identical quiescent heaps"
    QCheck.(map (fun n -> 1 + (n mod 5000)) small_int)
    (fun budget ->
      let k_stw, main_stw = churned_kernel () in
      let k_inc, main_inc = churned_kernel () in
      let s = Ert.Gc.collect ~extra_roots:[ main_stw ] k_stw in
      let cy = Ert.Gc.start ~extra_roots:[ main_inc ] k_inc in
      let i, increments = drive_cycle ~budget cy k_inc in
      (* a tiny budget must still make progress every increment *)
      increments >= 1
      && s.Ert.Gc.gc_live = i.Ert.Gc.gc_live
      && s.Ert.Gc.gc_swept = i.Ert.Gc.gc_swept
      && s.Ert.Gc.gc_bytes_freed = i.Ert.Gc.gc_bytes_freed
      &&
      (* and a second cycle finds nothing left to sweep *)
      let cy2 = Ert.Gc.start ~extra_roots:[ main_inc ] k_inc in
      let i2, _ = drive_cycle ~budget cy2 k_inc in
      i2.Ert.Gc.gc_swept = 0)

(* An address conjured mid-sweep for a block the snapshot proved dead
   resurrects it and the blocks it points to: a Holder and its string,
   unreachable, with the sweep cursor still below both, come back
   through [ensure_ref]'s graft hook; the next cycle frees them. *)
let holder_src =
  {|
object Holder
  var s : string <- "held"
end Holder
|}

let test_sweep_resurrects () =
  let run ~conjure =
    let cl = Core.Cluster.create ~archs:[ A.sparc ] () in
    ignore (Core.Cluster.compile_and_load cl ~name:"resurrect" holder_src);
    let k = Core.Cluster.kernel cl 0 in
    (* garbage below the holder, so the sweep has work before it *)
    ignore (Ert.Kernel.make_string k "swept first" : int);
    let class_index =
      match Emc.Compile.find_class (Ert.Kernel.program k) "Holder" with
      | Some cc -> cc.Emc.Compile.cc_index
      | None -> Alcotest.fail "no Holder class"
    in
    let holder = Ert.Kernel.create_object k ~class_index in
    let oid = Ert.Kernel.oid_at k holder in
    let str =
      Isa.Memory.load32_bits (Ert.Kernel.mem k) (holder + Emc.Layout.field_offset 0)
    in
    if str <= holder then Alcotest.fail "the string should sit above its holder";
    let cy = Ert.Gc.start k in
    let rec to_sweep () =
      match Ert.Gc.step cy k ~budget:1 with
      | Ert.Gc.Step_more { phase = Ert.Gc.Psweep; _ } -> ()
      | Ert.Gc.Step_more _ -> to_sweep ()
      | Ert.Gc.Step_done _ -> Alcotest.fail "the cycle ended before its sweep"
    in
    to_sweep ();
    (* a white block the sweep reached is already freed *)
    if Ert.Kernel.find_object k oid = None then
      Alcotest.fail "the sweep reached the holder before the test could";
    if conjure then ignore (Ert.Kernel.ensure_ref k oid : int);
    let first, _ = drive_cycle ~budget:1 cy k in
    (k, oid, first)
  in
  let _, _, plain = run ~conjure:false in
  let k, oid, first = run ~conjure:true in
  check Alcotest.int "holder and string counted live" (plain.Ert.Gc.gc_live + 2)
    first.Ert.Gc.gc_live;
  check Alcotest.int "neither swept this cycle" (plain.Ert.Gc.gc_swept - 2)
    first.Ert.Gc.gc_swept;
  if Ert.Kernel.find_object k oid = None then
    Alcotest.fail "the resurrected holder was freed";
  let next, _ = drive_cycle (Ert.Gc.start k) k in
  check Alcotest.int "the next cycle frees both" 2 next.Ert.Gc.gc_swept;
  check Alcotest.int "their bytes"
    (plain.Ert.Gc.gc_bytes_freed - first.Ert.Gc.gc_bytes_freed)
    next.Ert.Gc.gc_bytes_freed;
  if Ert.Kernel.find_object k oid <> None then
    Alcotest.fail "the holder survived the next cycle"

let test_incremental_mid_run_soundness () =
  (* interleave bounded increments with execution on a single node: the
     write barrier and graft hook must protect every value the thread
     still needs, whatever the interleaving *)
  let cl, main = setup [ A.sparc ] in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:main ~op:"churn"
      ~args:[ V.Vint 40l ]
  in
  let k = Core.Cluster.kernel cl 0 in
  let cycle = ref None in
  let steps = ref 0 in
  let rec go () =
    match Core.Cluster.result cl tid with
    | Some r -> r
    | None ->
      if not (Core.Cluster.step_once cl) then
        Alcotest.fail "quiescent without result";
      incr steps;
      (if !steps mod 5 = 0 then
         let cy =
           match !cycle with
           | Some cy -> cy
           | None ->
             let cy = Ert.Gc.start ~extra_roots:[ main ] k in
             cycle := Some cy;
             cy
         in
         match Ert.Gc.step cy k ~budget:48 with
         | Ert.Gc.Step_more _ -> ()
         | Ert.Gc.Step_done _ -> cycle := None);
      go ()
  in
  let r = go () in
  (match !cycle with
  | Some cy -> Ert.Gc.abort cy k
  | None -> ());
  check Alcotest.int "result survives interleaved increments" 42
    (match r with
    | Some (V.Vint v) -> Int32.to_int v
    | _ -> -1)

let test_cluster_modes_agree () =
  (* the cluster-scheduled tiers: same program, same threshold, both
     modes — identical results; only the incremental run emits phase
     events, and the stop-the-world run emits none *)
  let run gc_mode =
    let cl =
      Core.Cluster.create ~gc_threshold:(8 * 1024) ~gc_mode ~gc_budget:8
        ~archs:[ A.sparc; A.vax ] ()
    in
    ignore (Core.Cluster.compile_and_load cl ~name:"modegc" garbage_src);
    let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
    let tid =
      Core.Cluster.spawn cl ~node:0 ~target:main ~op:"churn"
        ~args:[ V.Vint 200l ]
    in
    let r =
      match Core.Cluster.run_until_result cl tid with
      | Some (V.Vint v) -> Int32.to_int v
      | _ -> -1
    in
    let total f = Core.Cluster.total_counter cl f in
    (r, total (fun c -> c.Core.Events.c_collections),
     total (fun c -> c.Core.Events.c_gc_increments))
  in
  let r_stw, coll_stw, inc_stw = run Core.Cluster.Gc_stw in
  let r_inc, coll_inc, inc_inc = run Core.Cluster.Gc_incremental in
  check Alcotest.int "stw result" 42 r_stw;
  check Alcotest.int "incremental result" 42 r_inc;
  if coll_stw = 0 then Alcotest.fail "stw mode never collected";
  if coll_inc = 0 then Alcotest.fail "incremental mode never collected";
  check Alcotest.int "stw emits no phase increments" 0 inc_stw;
  if inc_inc <= coll_inc then
    Alcotest.failf
      "incremental collections should take multiple increments (%d cycles, \
       %d increments)"
      coll_inc inc_inc

let test_incremental_across_migration () =
  (* threshold small enough that cycles race the move: the send-off
     greying (Oc_move) and the landing's allocate-black rule must keep
     the migrating agent's state sound in both directions *)
  let src =
    {|
object Agent
  operation go[n : int] -> [r : int]
    var i : int <- 0
    var sum : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      var s : string <- "hop " + "payload"
      move self to 1
      move self to 0
      if s == "" then
        sum <- 0 - sum
      end if
      sum <- sum + i
    end loop
    r <- sum
  end go
end Agent

object Main
  operation start[n : int] -> [r : int]
    var a : Agent <- new Agent
    r <- a.go[n]
  end start
end Main
|}
  in
  let run gc_mode =
    let cl =
      Core.Cluster.create ~gc_threshold:(4 * 1024) ~gc_mode ~gc_budget:32
        ~archs:[ A.sparc; A.vax ] ()
    in
    ignore (Core.Cluster.compile_and_load cl ~name:"movegc" src);
    let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
    let tid =
      Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start"
        ~args:[ V.Vint 12l ]
    in
    match Core.Cluster.run_until_result cl tid with
    | Some (V.Vint v) -> Int32.to_int v
    | _ -> -1
  in
  check Alcotest.int "stw across migration" 78 (run Core.Cluster.Gc_stw);
  check Alcotest.int "incremental across migration" 78
    (run Core.Cluster.Gc_incremental)

let test_crash_discards_cycle () =
  (* mark state is node-local soft state: a crash mid-cycle discards it
     (barrier and graft hook detached with the kernel), and a restarted
     node simply starts its next cycle from scratch *)
  let cl =
    Core.Cluster.create ~gc_threshold:(4 * 1024)
      ~gc_mode:Core.Cluster.Gc_incremental ~gc_budget:16
      ~archs:[ A.sparc; A.vax ] ()
  in
  ignore (Core.Cluster.compile_and_load cl ~name:"crashgc" garbage_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:main ~op:"churn"
      ~args:[ V.Vint 200l ]
  in
  (* step until a cycle is open on node 0, then fail-stop the node *)
  let rec wait budget =
    if budget = 0 then Alcotest.fail "no cycle ever opened"
    else if Core.Cluster.gc_in_progress cl 0 then ()
    else if not (Core.Cluster.step_once cl) then
      Alcotest.fail "quiescent before any cycle opened"
    else wait (budget - 1)
  in
  wait 200_000;
  Core.Cluster.crash_node cl 0;
  if Core.Cluster.gc_in_progress cl 0 then
    Alcotest.fail "crash left the mark cycle installed";
  (match Core.Cluster.thread_failure cl tid with
  | Some _ -> ()
  | None -> Alcotest.fail "root thread on the crashed node not reported lost");
  (* the reboot runs fresh cycles without tripping over stale state *)
  Core.Cluster.restart_node cl 0;
  let main2 = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let tid2 =
    Core.Cluster.spawn cl ~node:0 ~target:main2 ~op:"churn"
      ~args:[ V.Vint 120l ]
  in
  check Alcotest.int "post-restart churn result" 42
    (match Core.Cluster.run_until_result cl tid2 with
    | Some (V.Vint v) -> Int32.to_int v
    | _ -> -1)

(* The incremental collector's increments are ordinary engine events.
   On the multi-agent ring tour the trace, the increment count and the
   per-increment pause list are pinned to the values the sharded
   engine's last release recorded (identical there at 1, 2 and 4
   shards), and every pause obeys the budget bound: an increment is
   charged [Cost_model.gc_increment_insns] for the slots it scanned. *)
let test_incremental_pauses_pinned () =
  let budget = 64 in
  let pauses = ref [] in
  let cl, summary =
    Pinned.ring_tour ~gc_threshold:12_000 ~gc_mode:Core.Cluster.Gc_incremental
      ~gc_budget:budget
      ~on_event:(function
        | Core.Events.Ev_gc_phase { pause_us; _ } -> pauses := pause_us :: !pauses
        | _ -> ())
      ~subscribe:true ~n_nodes:4 ~hops:6 ~spins:30 ()
  in
  let pauses = List.rev !pauses in
  let increments =
    Core.Cluster.total_counter cl (fun c -> c.Core.Events.c_gc_increments)
  in
  if increments = 0 then Alcotest.fail "no increments ran";
  check Alcotest.int "every increment emitted a phase event" increments
    (List.length pauses);
  check Alcotest.string "trace and pauses"
    "result 360, events 840, collections 812, time 246555.76666666463, \
     trace aba8dd0bc0156c33e530616e55ed85ad, increments 812, \
     pauses e8b21397f81f30e7987445a2982d5c92"
    (Printf.sprintf "%s, increments %d, pauses %s" summary increments
       (Pinned.digest
          (String.concat " " (List.map (Printf.sprintf "%.17g") pauses))));
  (* the atomic root scan may overrun the slot budget, so give it
     headroom; mark and sweep increments sit well inside it *)
  let bound =
    float_of_int (Mobility.Cost_model.gc_increment_insns ~scanned:(budget + 2048))
    /. A.sparc.A.mips
  in
  List.iter
    (fun p ->
      if p > bound then
        Alcotest.failf "increment pause %.1fus exceeds bound %.1fus" p bound)
    pauses

let suites =
  [
    ( "gc",
      [
        Alcotest.test_case "collects garbage on every architecture" `Quick
          test_collects_garbage;
        Alcotest.test_case "preserves reachable values mid-run" `Quick
          test_preserves_reachable_mid_run;
        Alcotest.test_case "idempotent" `Quick test_gc_idempotent;
        Alcotest.test_case "after migration" `Quick test_gc_after_migration;
        Alcotest.test_case "automatic collection" `Quick test_automatic_collection;
        Alcotest.test_case "parked monitor waiter keeps its monitor" `Quick
          test_parked_monitor_waiter_keeps_monitor;
        QCheck_alcotest.to_alcotest vector_elements_unsigned_prop;
        QCheck_alcotest.to_alcotest incremental_equivalence_prop;
        Alcotest.test_case "a block touched mid-sweep is resurrected" `Quick
          test_sweep_resurrects;
        Alcotest.test_case "incremental increments interleave with execution"
          `Quick test_incremental_mid_run_soundness;
        Alcotest.test_case "cluster tiers agree on results" `Quick
          test_cluster_modes_agree;
        Alcotest.test_case "incremental cycles race migrations" `Quick
          test_incremental_across_migration;
        Alcotest.test_case "crash mid-cycle discards mark state" `Quick
          test_crash_discards_cycle;
        Alcotest.test_case "incremental pauses pinned, within the budget bound"
          `Quick test_incremental_pauses_pinned;
        Alcotest.test_case "block table: a kernel block's address is inserted in order"
          `Quick test_block_inserted_in_order;
        Alcotest.test_case "block table: a reused slot takes the new size" `Quick
          test_block_revived_with_new_size;
        QCheck_alcotest.to_alcotest block_table_prop;
      ] );
  ]
