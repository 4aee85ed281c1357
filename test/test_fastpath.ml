(* PR-8 fast paths: the threaded-dispatch engine and the negotiated
   same-layout blit migration tier.

   The dispatch engine must be observationally identical to the
   fetch/decode interpreter — same results, same per-node instruction
   counters, same virtual time, same protocol trace — on a run pinned
   to the values the sharded engine's last release recorded.  The blit
   tier must write byte-for-byte the plan tier's wire bytes and decode
   to states that behave identically (a qcheck property over every
   architecture pair, with mid-loop and mid-monitor-wait captures in
   flight), skipping translation only for same-layout pairs and falling
   back to the per-datum path everywhere else.  A forced eviction mid-bridge
   under the blit codec closes the loop. *)

module A = Isa.Arch
module V = Ert.Value
module K = Ert.Kernel
module T = Ert.Thread

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* threaded dispatch == fetch/decode, bit for bit                     *)
(* ---------------------------------------------------------------- *)

let dispatch_src =
  {|
object Gate
  var opened : bool <- false
  condition go

  monitor operation pass[] -> [r : int]
    loop
      exit when opened
      wait go timeout 900
    end loop
    r <- thisnode
  end pass

  monitor operation open[]
    opened <- true
    notifyall go
  end open
end Gate

object Opener
  var g : Gate <- nil
  operation initially[gg : Gate]
    g <- gg
  end initially
  process
    var i : int <- 0
    loop
      exit when i >= 120
      i <- i + 1
    end loop
    g.open[]
  end process
end Opener

object Hopper
  operation hop[n : int] -> [r : int]
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      acc <- acc + i * i
      move self to 1
      acc <- acc - i
      move self to 2
      acc <- acc + 3 * i
      move self to 0
    end loop
    r <- acc
  end hop
end Hopper

object Worker
  operation work[rounds : int, spins : int] -> [r : int]
    var i : int <- 0
    var j : int <- 0
    var acc : int <- 0
    loop
      exit when i >= rounds
      i <- i + 1
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

object Main
  operation start[] -> [r : int]
    var g : Gate <- new Gate
    var o : Opener <- new Opener[g]
    r <- g.pass[]
  end start
end Main
|}

let run_dispatch_mix ~threaded =
  let archs = [ A.sparc; A.vax; A.sun3; A.by_id "hp433" ] in
  let cl = Core.Cluster.create ~quantum:40 ~archs () in
  for i = 0 to Core.Cluster.n_nodes cl - 1 do
    K.set_threaded (Core.Cluster.kernel cl i) threaded
  done;
  let trace = Buffer.create 4096 in
  Core.Cluster.set_trace cl (fun line ->
      Buffer.add_string trace line;
      Buffer.add_char trace '\n');
  ignore (Core.Cluster.compile_and_load cl ~name:"dispatchmix" dispatch_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let gt = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
  let hopper = Core.Cluster.create_object cl ~node:0 ~class_name:"Hopper" in
  let ht =
    Core.Cluster.spawn cl ~node:0 ~target:hopper ~op:"hop"
      ~args:[ V.Vint 3l ]
  in
  let workers =
    List.init 3 (fun i ->
        let w =
          Core.Cluster.create_object cl ~node:(i + 1) ~class_name:"Worker"
        in
        Core.Cluster.spawn cl ~node:(i + 1) ~target:w ~op:"work"
          ~args:[ V.Vint 3l; V.Vint 40l ])
  in
  Core.Cluster.run cl;
  let digest tid =
    match Core.Cluster.result cl tid with
    | Some (Some (V.Vint v)) -> Int32.to_int v
    | _ -> Alcotest.fail "dispatch-mix thread did not complete"
  in
  let insns =
    List.init (Core.Cluster.n_nodes cl) (fun i ->
        K.insns_executed (Core.Cluster.kernel cl i))
  in
  let dstats =
    List.init (Core.Cluster.n_nodes cl) (fun i ->
        K.dispatch_stats (Core.Cluster.kernel cl i))
  in
  ( List.map digest (gt :: ht :: workers),
    insns,
    Core.Cluster.global_time_us cl,
    Buffer.contents trace,
    dstats )

let test_dispatch_identical_to_interpreter () =
  let base, insns0, t0, trace0, base_stats = run_dispatch_mix ~threaded:false in
  (* the baseline path must not touch the translation cache *)
  List.iter
    (fun (s : Isa.Dispatch.stats) ->
      check Alcotest.int "baseline translated nothing" 0 s.Isa.Dispatch.st_blocks)
    base_stats;
  check Alcotest.string "pinned baseline"
    "results 0 26 6001 6002 6003, insns 2029 3130 3748 3709, \
     time 480885.94166666665, trace ffd7a0c08f53dd5a9adf2174bcb19f20"
    (Printf.sprintf "results %s, insns %s, time %.17g, trace %s"
       (String.concat " " (List.map string_of_int base))
       (String.concat " " (List.map string_of_int insns0))
       t0 (Pinned.digest trace0));
  let d, insns, t, trace, dstats = run_dispatch_mix ~threaded:true in
  check (Alcotest.list Alcotest.int) "threaded results" base d;
  check (Alcotest.list Alcotest.int) "threaded insns per node" insns0 insns;
  check (Alcotest.float 0.0) "threaded virtual time" t0 t;
  check Alcotest.string "threaded trace" trace0 trace;
  let blocks = List.fold_left (fun a s -> a + s.Isa.Dispatch.st_blocks) 0 dstats in
  let fused = List.fold_left (fun a s -> a + s.Isa.Dispatch.st_fused) 0 dstats in
  if blocks = 0 then Alcotest.fail "no blocks were translated";
  if fused = 0 then Alcotest.fail "no superinstructions were fused"

(* ---------------------------------------------------------------- *)
(* blit tier == plan tier for every arch pair (qcheck property)       *)
(* ---------------------------------------------------------------- *)

(* Mid-loop captures (the courier moves with live loop state twice per
   iteration) and a mid-monitor-wait capture (the gate moves while two
   waiters sit on its condition queue), then everyone drains. *)
let blit_src =
  {|
object Gate
  var opened : bool <- false
  condition go

  monitor operation pass[] -> [r : int]
    loop
      exit when opened
      wait go
    end loop
    r <- thisnode
  end pass

  monitor operation open[]
    opened <- true
    notifyall go
  end open
end Gate

object Waiter
  operation park[g : Gate] -> [r : int]
    r <- g.pass[]
  end park
end Waiter

object Courier
  operation tour[g : Gate, n : int] -> [r : int]
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      acc <- acc + i * i
      move self to 1
      acc <- acc + i
      move self to 0
    end loop
    move g to 1
    g.open[]
    r <- acc
  end tour
end Courier
|}

type blit_obs = {
  bo_results : int list;
  bo_gate_at : int option;
  bo_bytes : int;
  bo_messages : int;
  bo_virtual_us : float;
  bo_skips : int;
  bo_fallbacks : int;
}

let run_blit_workload ~wire_impl ~src ~dst =
  let cl = Core.Cluster.create ~wire_impl ~archs:[ src; dst ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"blit" blit_src);
  let gate = Core.Cluster.create_object cl ~node:0 ~class_name:"Gate" in
  let w1 = Core.Cluster.create_object cl ~node:0 ~class_name:"Waiter" in
  let w2 = Core.Cluster.create_object cl ~node:0 ~class_name:"Waiter" in
  let t1 = Core.Cluster.spawn cl ~node:0 ~target:w1 ~op:"park" ~args:[ V.Vref gate ] in
  let t2 = Core.Cluster.spawn cl ~node:0 ~target:w2 ~op:"park" ~args:[ V.Vref gate ] in
  (* park both waiters on the condition queue before the courier runs,
     so moving the gate captures threads blocked mid-monitor-wait *)
  for _ = 1 to 200 do
    ignore (Core.Cluster.step_once cl)
  done;
  let courier = Core.Cluster.create_object cl ~node:0 ~class_name:"Courier" in
  let tc =
    Core.Cluster.spawn cl ~node:0 ~target:courier ~op:"tour"
      ~args:[ V.Vref gate; V.Vint 3l ]
  in
  Core.Cluster.run cl;
  let digest tid =
    match Core.Cluster.result cl tid with
    | Some (Some (V.Vint v)) -> Int32.to_int v
    | _ -> Alcotest.fail "blit workload thread did not complete"
  in
  let open Core.Events in
  {
    bo_results = List.map digest [ t1; t2; tc ];
    bo_gate_at = Core.Cluster.where_is cl gate;
    bo_bytes = Enet.Netsim.bytes_sent (Core.Cluster.network cl);
    bo_messages = Enet.Netsim.messages_sent (Core.Cluster.network cl);
    bo_virtual_us = Core.Cluster.global_time_us cl;
    bo_skips = Core.Cluster.total_counter cl (fun c -> c.c_blit_skips);
    bo_fallbacks = Core.Cluster.total_counter cl (fun c -> c.c_blit_fallbacks);
  }

let pair_gen =
  let open QCheck.Gen in
  let n = List.length A.all in
  int_range 0 (n - 1) >>= fun si ->
  int_range 0 (n - 1) >>= fun di ->
  return (List.nth A.all si, List.nth A.all di)

let blit_matches_plan =
  QCheck.Test.make
    ~name:"blit tier == plan tier for every arch pair (skips iff same layout)"
    ~count:12 (QCheck.make pair_gen) (fun (src, dst) ->
      let plan = run_blit_workload ~wire_impl:Enet.Wire.Plan ~src ~dst in
      let blit = run_blit_workload ~wire_impl:Enet.Wire.Blit ~src ~dst in
      if plan.bo_skips <> 0 || plan.bo_fallbacks <> 0 then
        QCheck.Test.fail_report "plan tier emitted blit events";
      if blit.bo_results <> plan.bo_results then
        QCheck.Test.fail_report "blit decoded to a different result";
      if blit.bo_gate_at <> plan.bo_gate_at then
        QCheck.Test.fail_report "blit left the gate on a different node";
      if blit.bo_bytes <> plan.bo_bytes then
        QCheck.Test.fail_reportf "blit wire bytes differ: %d vs plan %d"
          blit.bo_bytes plan.bo_bytes;
      if blit.bo_messages <> plan.bo_messages then
        QCheck.Test.fail_report "blit message count differs from plan";
      if A.same_layout src dst then begin
        if blit.bo_skips = 0 then
          QCheck.Test.fail_reportf "same-layout pair %s->%s never skipped"
            src.A.id dst.A.id;
        if blit.bo_fallbacks <> 0 then
          QCheck.Test.fail_report "same-layout pair fell back to the per-datum path";
        (* skipping translation must show up on the virtual clock *)
        if not (blit.bo_virtual_us < plan.bo_virtual_us) then
          QCheck.Test.fail_reportf
            "same-layout blit not faster: %.1f us vs plan %.1f us"
            blit.bo_virtual_us plan.bo_virtual_us
      end
      else begin
        if blit.bo_skips <> 0 then
          QCheck.Test.fail_reportf "mixed-layout pair %s->%s skipped translation"
            src.A.id dst.A.id;
        if blit.bo_fallbacks = 0 then
          QCheck.Test.fail_report "mixed-layout pair never recorded a fallback";
        (* the honest fallback is the plan tier exactly, clock included *)
        if blit.bo_virtual_us <> plan.bo_virtual_us then
          QCheck.Test.fail_report "mixed-layout blit moved the virtual clock"
      end;
      true)

(* every same-layout pair is exercised deterministically too, not just
   whichever pairs qcheck happens to draw *)
let test_all_same_layout_pairs_skip () =
  let pairs =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a != b && A.same_layout a b then Some (a, b) else None)
          A.all)
      A.all
  in
  if pairs = [] then Alcotest.fail "no same-layout pairs among the builtins";
  List.iter
    (fun (src, dst) ->
      let blit = run_blit_workload ~wire_impl:Enet.Wire.Blit ~src ~dst in
      if blit.bo_skips = 0 then
        Alcotest.failf "%s->%s: no blit skip" src.A.id dst.A.id;
      if blit.bo_fallbacks <> 0 then
        Alcotest.failf "%s->%s: unexpected fallback" src.A.id dst.A.id)
    pairs

(* ---------------------------------------------------------------- *)
(* eviction during blit: forced capture rides the fast path            *)
(* ---------------------------------------------------------------- *)

let bridge_src =
  {|
object Server
  operation double[x : int] -> [r : int]
    var i : int <- 0
    loop
      exit when i >= 400
      i <- i + 1
    end loop
    r <- x + x
  end double
end Server

object Client
  operation go[s : Server] -> [r : int]
    r <- s.double[21]
  end go
end Client
|}

let seg_of_tid k tid =
  List.find_opt (fun s -> s.T.seg_thread = tid) (K.segments k)

let test_evict_during_blit () =
  (* an all-same-layout cluster under the blit codec: a forced eviction
     mid-bridge marshals through the blit path and must behave exactly
     like the plan-tier eviction test *)
  let archs = [ A.sun3; A.by_id "hp433"; A.by_id "hp385" ] in
  let cl = Core.Cluster.create ~wire_impl:Enet.Wire.Blit ~archs () in
  ignore (Core.Cluster.compile_and_load cl ~name:"blitbridge" bridge_src);
  let server = Core.Cluster.create_object cl ~node:1 ~class_name:"Server" in
  let client = Core.Cluster.create_object cl ~node:0 ~class_name:"Client" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:client ~op:"go"
      ~args:[ V.Vref server ]
  in
  let k0 = Core.Cluster.kernel cl 0 in
  let rec to_bridge n =
    if n > 20000 then Alcotest.fail "client never reached the bridge";
    match seg_of_tid k0 tid with
    | Some ({ T.seg_status = T.Awaiting_reply _; _ } as s) -> s.T.seg_id
    | _ ->
      ignore (Core.Cluster.step_once cl);
      to_bridge (n + 1)
  in
  let seg_id = to_bridge 0 in
  Core.Cluster.evict_thread cl ~node:0 ~seg_id ~dest:2;
  check Alcotest.int "trap fired immediately" 1 (K.evictions k0);
  (match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint 42l) -> ()
  | _ -> Alcotest.fail "reply did not reach the evicted segment");
  check (Alcotest.option Alcotest.int) "client evicted to node 2" (Some 2)
    (Core.Cluster.where_is cl client);
  let open Core.Events in
  let skips = Core.Cluster.total_counter cl (fun c -> c.c_blit_skips) in
  if skips = 0 then Alcotest.fail "the evicted move never took the blit path";
  check Alcotest.int "no fallbacks on the same-layout cluster" 0
    (Core.Cluster.total_counter cl (fun c -> c.c_blit_fallbacks))

(* ---------------------------------------------------------------- *)
(* fingerprints are interned once per arch                            *)
(* ---------------------------------------------------------------- *)

let test_fingerprint_memo () =
  let c0 = A.fingerprint_computes () in
  List.iter (fun a -> ignore (A.fingerprint a : int)) A.all;
  List.iter
    (fun a -> List.iter (fun b -> ignore (A.same_layout a b : bool)) A.all)
    A.all;
  let computed = A.fingerprint_computes () - c0 in
  (* every arch was fingerprinted above; past one compute per arch the
     memo must absorb everything *)
  if computed > List.length A.all then
    Alcotest.failf "memo leak: %d fingerprints computed for %d archs" computed
      (List.length A.all);
  let h0 = A.fingerprint_hits () in
  List.iter (fun a -> ignore (A.fingerprint a : int)) A.all;
  check Alcotest.int "all repeat lookups hit the memo"
    (h0 + List.length A.all)
    (A.fingerprint_hits ());
  check Alcotest.int "no repeat lookup recomputed"
    (c0 + computed)
    (A.fingerprint_computes ())

let suites =
  [
    ( "fastpath",
      [
        Alcotest.test_case "threaded dispatch == interpreter, pinned"
          `Quick test_dispatch_identical_to_interpreter;
        qcheck blit_matches_plan;
        Alcotest.test_case "every same-layout pair skips translation" `Quick
          test_all_same_layout_pairs_skip;
        Alcotest.test_case "eviction during blit" `Quick test_evict_during_blit;
        Alcotest.test_case "layout fingerprints are interned" `Quick
          test_fingerprint_memo;
      ] );
  ]
