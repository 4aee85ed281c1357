(* Forced eviction and monitor wait/notify: the PR-6 execution-core
   restructuring.  Covers pinned hot-spot balancer runs (traces and
   profile tables by digest), eviction of segments caught mid-bridge
   (awaiting a remote reply) and mid-monitor-queue (blocked on a
   condition), timed waits and notifyall at every
   level of the specialization hierarchy, and a qcheck property that a
   forced eviction marshals exactly the bytes the cooperative capture
   path would. *)

module A = Isa.Arch
module V = Ert.Value
module K = Ert.Kernel
module T = Ert.Thread
module W = Core.Workloads
module MV = Emi.Mvalue

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---------------------------------------------------------------- *)
(* hot-spot balancer, pinned                                          *)
(* ---------------------------------------------------------------- *)

(* pinned to the values the sharded engine's last release recorded,
   where 1, 2 and 4 shards agreed on them *)
let test_hotspot_pinned () =
  let r = W.measure_evict ~workers:6 ~n_nodes:4 ~rounds:4 ~spins:60 () in
  if r.W.er_evictions = 0 then
    Alcotest.fail "the balancer never fired an eviction";
  let distinct =
    List.sort_uniq compare r.W.er_final_spread |> List.length
  in
  if distinct < 2 then
    Alcotest.fail "eviction never spread the workers off node 0";
  check Alcotest.string "run"
    "result 72003, time 52583.783333333566, events 1326, evictions 2, \
     trace f53cca424c11f07e0eb67703d5eafeb4, \
     phase table 14cca5d448347681b51d992c6e2215a3"
    (Printf.sprintf
       "result %d, time %.17g, events %d, evictions %d, trace %s, phase table %s"
       r.W.er_result r.W.er_virtual_us r.W.er_events r.W.er_evictions
       (Pinned.digest r.W.er_trace)
       (Pinned.digest r.W.er_phase_table))

(* one eviction changes the depth difference by two, so a threshold
   below 2 could never settle: a lone thread would ping-pong forever *)
let test_hotspot_threshold_floor () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax ] () in
  List.iter
    (fun threshold ->
      match W.hot_spot_balancer ~threshold cl with
      | (_ : unit -> unit) -> Alcotest.failf "threshold %d accepted" threshold
      | exception Invalid_argument _ -> ())
    [ 1; 0; -1 ]

(* ---------------------------------------------------------------- *)
(* eviction + wait/notify together, pinned                            *)
(* ---------------------------------------------------------------- *)

let gate_and_spin_src =
  {|
object Gate
  var opened : bool <- false
  condition go

  monitor operation pass[] -> [r : int]
    loop
      exit when opened
      wait go timeout 700
    end loop
    r <- thisnode
  end pass

  monitor operation open[]
    opened <- true
    notifyall go
  end open
end Gate

object Waiter
  var g : Gate <- nil
  operation initially[gg : Gate]
    g <- gg
  end initially
  process
    var x : int <- g.pass[]
  end process
end Waiter

object Opener
  var g : Gate <- nil
  operation initially[gg : Gate]
    g <- gg
  end initially
  process
    var i : int <- 0
    loop
      exit when i >= 150
      i <- i + 1
    end loop
    g.open[]
  end process
end Opener

object Main
  operation start[] -> [r : int]
    var g : Gate <- new Gate
    var w1 : Waiter <- new Waiter[g]
    var w2 : Waiter <- new Waiter[g]
    var o : Opener <- new Opener[g]
    r <- g.pass[]
  end start
end Main

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
|}

let run_gate_and_spin () =
  let archs = List.init 4 (fun _ -> A.sparc) in
  let cl = Core.Cluster.create ~quantum:40 ~archs () in
  let trace = Buffer.create 4096 in
  Core.Cluster.set_trace cl (fun line ->
      Buffer.add_string trace line;
      Buffer.add_char trace '\n');
  let prof = Obs.Profile.create () in
  Core.Cluster.attach_profile cl prof;
  ignore (Core.Cluster.compile_and_load cl ~name:"gatespin" gate_and_spin_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let mt = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
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
    | _ -> Alcotest.fail "gate+spin thread did not complete"
  in
  let evictions =
    List.init 4 (fun i -> K.evictions (Core.Cluster.kernel cl i))
    |> List.fold_left ( + ) 0
  in
  ( List.map digest (mt :: workers),
    evictions,
    Core.Cluster.global_time_us cl,
    Buffer.contents trace,
    Obs.Profile.table prof )

let test_gate_and_spin_pinned () =
  let digests, evictions, time, trace, table = run_gate_and_spin () in
  if evictions = 0 then Alcotest.fail "no eviction fired alongside wait/notify";
  check Alcotest.string "run"
    "digests 1 7502 7500 7500 7500, evictions 2, time 57039.750000000284, \
     trace 9bd183d06dac81267127b675a54ca55d, \
     phase table 0f390700ea7118ddc4e7a08f20daf0f9"
    (Printf.sprintf "digests %s, evictions %d, time %.17g, trace %s, phase table %s"
       (String.concat " " (List.map string_of_int digests))
       evictions time (Pinned.digest trace) (Pinned.digest table))

(* ---------------------------------------------------------------- *)
(* eviction mid-bridge: the segment awaits a remote reply             *)
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

let test_evict_mid_bridge () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax; A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"bridge" bridge_src);
  let server = Core.Cluster.create_object cl ~node:1 ~class_name:"Server" in
  let client = Core.Cluster.create_object cl ~node:0 ~class_name:"Client" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:client ~op:"go"
      ~args:[ V.Vref server ]
  in
  let k0 = Core.Cluster.kernel cl 0 in
  (* run until the client's segment is parked on the bridge *)
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
  (* the client object travelled with its mid-bridge segment *)
  check (Alcotest.option Alcotest.int) "client evicted to node 2" (Some 2)
    (Core.Cluster.where_is cl client)

(* ---------------------------------------------------------------- *)
(* eviction mid-monitor-queue: the segment is a blocked cond waiter   *)
(* ---------------------------------------------------------------- *)

let monitor_queue_src =
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
|}

let test_evict_mid_monitor_queue () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"monq" monitor_queue_src);
  let gate = Core.Cluster.create_object cl ~node:0 ~class_name:"Gate" in
  let w1 = Core.Cluster.create_object cl ~node:0 ~class_name:"Waiter" in
  let w2 = Core.Cluster.create_object cl ~node:0 ~class_name:"Waiter" in
  let t1 = Core.Cluster.spawn cl ~node:0 ~target:w1 ~op:"park" ~args:[ V.Vref gate ] in
  let t2 = Core.Cluster.spawn cl ~node:0 ~target:w2 ~op:"park" ~args:[ V.Vref gate ] in
  let k0 = Core.Cluster.kernel cl 0 in
  (* run until both waiters are blocked on the condition queue *)
  let blocked tid =
    match seg_of_tid k0 tid with
    | Some { T.seg_status = T.Blocked_monitor _; _ } -> true
    | _ -> false
  in
  let rec settle n =
    if n > 20000 then Alcotest.fail "waiters never blocked";
    if not (blocked t1 && blocked t2) then begin
      ignore (Core.Cluster.step_once cl);
      settle (n + 1)
    end
  in
  settle 0;
  let seg_id =
    match seg_of_tid k0 t1 with
    | Some s -> s.T.seg_id
    | None -> Alcotest.fail "waiter 1 segment vanished"
  in
  (* evicting the blocked waiter ships the gate it is executing inside,
     dragging the whole condition queue (the other waiter included) *)
  Core.Cluster.evict_thread cl ~node:0 ~seg_id ~dest:1;
  check Alcotest.int "trap fired immediately" 1 (K.evictions k0);
  Core.Cluster.run cl;
  check (Alcotest.option Alcotest.int) "gate moved with the waiter" (Some 1)
    (Core.Cluster.where_is cl gate);
  let ot = Core.Cluster.spawn cl ~node:1 ~target:gate ~op:"open" ~args:[] in
  Core.Cluster.run cl;
  ignore (Core.Cluster.result cl ot);
  List.iter
    (fun t ->
      match Core.Cluster.result cl t with
      | Some (Some (V.Vint 1l)) -> ()
      | _ -> Alcotest.fail "waiter did not resume on the VAX after eviction")
    [ t1; t2 ]

(* ---------------------------------------------------------------- *)
(* timed waits and notifyall                                          *)
(* ---------------------------------------------------------------- *)

let test_timed_wait_expires () =
  let src =
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
  in
  let cl = Core.Cluster.create ~archs:[ A.sparc ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"nap" src);
  let n = Core.Cluster.create_object cl ~node:0 ~class_name:"Napper" in
  let t =
    Core.Cluster.spawn cl ~node:0 ~target:n ~op:"nap" ~args:[ V.Vint 500l ]
  in
  match Core.Cluster.run_until_result cl t with
  | Some (V.Vint v) ->
    let v = Int32.to_int v in
    if v < 500 then
      Alcotest.failf "timed wait resumed %d us in, before its 500 us deadline" v
  | _ -> Alcotest.fail "timed wait with no signaller never expired"

let test_notifyall_wakes_every_waiter () =
  let cl = Core.Cluster.create ~archs:[ A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"all" monitor_queue_src);
  let gate = Core.Cluster.create_object cl ~node:0 ~class_name:"Gate" in
  let spawn_waiter () =
    let w = Core.Cluster.create_object cl ~node:0 ~class_name:"Waiter" in
    Core.Cluster.spawn cl ~node:0 ~target:w ~op:"park" ~args:[ V.Vref gate ]
  in
  let ts = List.init 3 (fun _ -> spawn_waiter ()) in
  Core.Cluster.run cl;
  (* all three are parked; one notifyall must release them all *)
  let ot = Core.Cluster.spawn cl ~node:0 ~target:gate ~op:"open" ~args:[] in
  Core.Cluster.run cl;
  ignore (Core.Cluster.result cl ot);
  List.iter
    (fun t ->
      match Core.Cluster.result cl t with
      | Some (Some (V.Vint 0l)) -> ()
      | _ -> Alcotest.fail "notifyall left a waiter blocked")
    ts

(* the same timed-wait/notifyall program at all three levels of the
   specialization hierarchy *)
let levels_src =
  {|
object Cell
  var v : int <- 0
  var filled : bool <- false
  condition c

  monitor operation put[x : int]
    v <- x
    filled <- true
    notifyall c
  end put

  monitor operation get[] -> [r : int]
    loop
      exit when filled
      wait c timeout 50
    end loop
    r <- v
  end get
end Cell

object Setter
  var cell : Cell <- nil
  operation initially[c : Cell]
    cell <- c
  end initially
  process
    cell.put[42]
  end process
end Setter

object Main
  operation start[] -> [r : int]
    var c : Cell <- new Cell
    var s : Setter <- new Setter[c]
    r <- c.get[]
  end start
end Main
|}

let test_wait_notify_levels_agree () =
  let ast = Emc.Parser.parse_program levels_src in
  let tprog = Emc.Typecheck.check ast in
  let r_src =
    Emi.Ast_interp.run tprog ~class_name:"Main" ~op:"start" ~args:[]
  in
  let ir = Emc.Lower.lower_program ~formats:[] ~name:"levels" tprog in
  let r_ir = Emi.Ir_interp.run ir ~class_name:"Main" ~op:"start" ~args:[] in
  check (Alcotest.option Alcotest.int) "source level" (Some 42)
    (Option.map (fun v -> Int32.to_int (MV.as_int v)) r_src.Emi.Ast_interp.value);
  check (Alcotest.option Alcotest.int) "IR level" (Some 42)
    (Option.map (fun v -> Int32.to_int (MV.as_int v)) r_ir.Emi.Ir_interp.value);
  let cl = Core.Cluster.create ~archs:[ A.vax ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"levels" levels_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let t = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
  match Core.Cluster.run_until_result cl t with
  | Some (V.Vint 42l) -> ()
  | _ -> Alcotest.fail "native level disagreed on the wait/notify program"

let test_emi_deadlock_detected () =
  let src =
    {|
object Main
  condition never
  monitor operation start[] -> [r : int]
    wait never
    r <- 1
  end start
end Main
|}
  in
  let ast = Emc.Parser.parse_program src in
  let tprog = Emc.Typecheck.check ast in
  match Emi.Ast_interp.run tprog ~class_name:"Main" ~op:"start" ~args:[] with
  | _ -> Alcotest.fail "an untimed wait with no signaller must deadlock"
  | exception Failure msg ->
    if not (String.length msg >= 8 && String.sub msg 0 8 = "deadlock") then
      Alcotest.failf "expected a deadlock failure, got: %s" msg

(* ---------------------------------------------------------------- *)
(* qcheck: evict-then-migrate == cooperative park-then-migrate        *)
(* ---------------------------------------------------------------- *)

(* Two identical kernels run the same two spin workers in lockstep.  At a
   random slice where worker 1 is capturable, kernel A captures it with
   the forced-eviction path (trap -> [Move.initiate_evict], which must
   resolve the target object by walking the frames) and kernel B with the
   cooperative path ([Move.perform_move] on the object address the
   program knows).  The marshalled move payloads must match byte for
   byte: eviction only chooses *when* to capture, never *what*. *)

let spin_src ~n_vars =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "object Worker\n  operation work[spins : int] -> [r : int]\n";
  for i = 1 to n_vars do
    Buffer.add_string buf (Printf.sprintf "    var v%d : int <- %d\n" i (i * 7))
  done;
  Buffer.add_string buf "    var i : int <- 0\n    var acc : int <- 0\n";
  Buffer.add_string buf "    loop\n      exit when i >= spins\n      i <- i + 1\n";
  Buffer.add_string buf "      acc <- acc";
  for i = 1 to n_vars do
    Buffer.add_string buf (Printf.sprintf " + v%d" i)
  done;
  Buffer.add_string buf "\n    end loop\n    r <- acc\n  end work\nend Worker\n";
  Buffer.contents buf

let evict_capture_gen =
  QCheck.Gen.(triple (int_range 1 10) (int_range 2 30) (int_range 1 60))

let build_spin_kernel ~n_vars ~spins =
  let prog =
    Emc.Compile.compile_exn ~name:"spin" ~archs:[ A.sparc ] (spin_src ~n_vars)
  in
  let k = K.create ~node_id:0 ~arch:A.sparc () in
  K.load_program k prog;
  K.set_quantum k (Some 25);
  let cc = Option.get (Emc.Compile.find_class prog "Worker") in
  let a1 = K.create_object k ~class_index:cc.Emc.Compile.cc_index in
  let a2 = K.create_object k ~class_index:cc.Emc.Compile.cc_index in
  let args = [ V.Vint (Int32.of_int spins) ] in
  let t1 = K.spawn_root k ~target_addr:a1 ~method_name:"work" ~args in
  ignore (K.spawn_root k ~target_addr:a2 ~method_name:"work" ~args);
  (k, a1, t1)

let payload_bytes payload =
  let stats = Enet.Conversion_stats.create () in
  Enet.Wire.view_to_string
    (Mobility.Marshal.encode ~impl:Enet.Wire.Naive ~stats (Mobility.Marshal.M_move payload))

let qcheck_evict_equals_cooperative =
  QCheck.Test.make ~name:"evict-then-migrate == park-then-migrate (bytes)"
    ~count:80 (QCheck.make evict_capture_gen) (fun (n_vars, spins, slices) ->
      let ka, _oa, ta = build_spin_kernel ~n_vars ~spins in
      let kb, ob, _tb = build_spin_kernel ~n_vars ~spins in
      for _ = 1 to slices do
        ignore (K.step ka);
        ignore (K.step kb)
      done;
      (* capture splits every live segment, so both kernels must first park
         any segment preempted mid-quantum at its next stop — exactly what
         the cluster's quiesce does before a move *)
      let quiesce k =
        List.iter
          (fun s ->
            if s.T.seg_live && not (K.at_stop k s) then
              ignore (K.advance_to_stop k s))
          (K.segments k)
      in
      quiesce ka;
      quiesce kb;
      match seg_of_tid ka ta with
      | None -> true (* worker already finished: nothing to capture *)
      | Some seg_a when not (K.capturable ka seg_a) ->
        true (* parked mid-quantum, not at a stop: trap stays armed *)
      | Some seg_a -> (
        match K.evict_thread ka ~seg_id:seg_a.T.seg_id ~dest_node:1 with
        | [ K.Oc_evict { seg; dest_node; _ } ] ->
          let sends_evict = Mobility.Move.initiate_evict ~k:ka ~seg ~dest:dest_node in
          let payload_coop = Mobility.Move.perform_move kb ~obj_addr:ob ~dest:1 in
          (match sends_evict with
          | [ { Mobility.Move.snd_msg = Mobility.Marshal.M_move p; _ } ] ->
            payload_bytes p = payload_bytes payload_coop
          | _ -> false)
        | _ -> false))

let suites =
  [
    ( "eviction",
      [
        Alcotest.test_case "hot-spot balancer pinned" `Quick
          test_hotspot_pinned;
        Alcotest.test_case "balancer refuses a threshold below 2" `Quick
          test_hotspot_threshold_floor;
        Alcotest.test_case "eviction + wait/notify pinned" `Quick
          test_gate_and_spin_pinned;
        Alcotest.test_case "eviction mid-bridge (awaiting reply)" `Quick
          test_evict_mid_bridge;
        Alcotest.test_case "eviction mid-monitor-queue" `Quick
          test_evict_mid_monitor_queue;
        Alcotest.test_case "timed wait expires" `Quick test_timed_wait_expires;
        Alcotest.test_case "notifyall wakes every waiter" `Quick
          test_notifyall_wakes_every_waiter;
        Alcotest.test_case "wait/notify agrees at all three levels" `Quick
          test_wait_notify_levels_agree;
        Alcotest.test_case "emi deadlock detected" `Quick
          test_emi_deadlock_detected;
        qcheck qcheck_evict_equals_cooperative;
      ] );
  ]
