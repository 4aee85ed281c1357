(* The typed trace/metrics bus: emission paths for moves, drops and
   collections; per-node counters; and the legacy-string printer that
   must reproduce the seed trace hook's lines byte-for-byte. *)

module A = Isa.Arch
module V = Ert.Value
module W = Core.Workloads
module C = Core.Cluster
module E = Core.Events

let check = Alcotest.check

let test_legacy_strings () =
  let oid = Ert.Oid.fresh_data ~node_id:3 ~serial:7 in
  let os = Ert.Oid.to_string oid in
  let cases =
    [
      ( E.Ev_msg_send
          { time = 12.0; src = 0; dst = 1; desc = "MoveReq"; bytes = 40; arrives = 262.0 },
        Some "t=12us node 0 -> node 1: MoveReq (40 bytes, arrives 262us)" );
      ( E.Ev_msg_deliver { time = 262.0; node = 1; desc = "MoveReq" },
        Some "t=262us node 1 receives: MoveReq" );
      ( E.Ev_msg_lost { src = 0; dst = 2; desc = "Ping" },
        Some "node 0 -> node 2: Ping LOST (destination down)" );
      (E.Ev_msg_drop { node = 2; desc = "Pong" }, Some "node 2 (down) loses: Pong");
      ( E.Ev_move_start { time = 5.0; node = 0; obj = oid; dest = 1 },
        Some (Printf.sprintf "t=5us node 0: move %s to node 1" os) );
      ( E.Ev_gc { time = 9.0; node = 1; swept = 4; live = 2; bytes_freed = 128 },
        Some "t=9us node 1: gc swept 4 block(s), 128 bytes" );
      (E.Ev_crash { node = 2 }, Some "node 2 crashes");
      ( E.Ev_thread_lost { thread = 1; reason = "node 2 crashed" },
        Some "thread 1 unavailable: node 2 crashed" );
      ( E.Ev_search_start { node = 0; obj = oid; probes = 3 },
        Some (Printf.sprintf "node 0 searches for %s (3 probes)" os) );
      ( E.Ev_search_found { obj = oid; node = 2 },
        Some (Printf.sprintf "search for %s: found on node 2" os) );
      ( E.Ev_search_failed { obj = oid },
        Some (Printf.sprintf "search for %s: not found anywhere" os) );
      (* events the seed's trace hook never printed *)
      (E.Ev_step { node = 0; time = 1.0 }, None);
      ( E.Ev_move_finish { time = 1.0; node = 1; objects = 1; segments = 1; frames = 2 },
        None );
      (E.Ev_conversion { node = 0; calls = 10; bytes = 8 }, None);
    ]
  in
  List.iter
    (fun (ev, expect) ->
      check
        Alcotest.(option string)
        (E.to_string ev) expect (E.legacy_string ev))
    cases

let test_trace_hook_matches_bus () =
  (* the legacy [set_trace] hook and a bus subscriber filtering through
     [legacy_string] must see the very same lines, in the same order *)
  let run collect_via_hook =
    let cl = C.create ~archs:[ A.sparc; A.sun3 ] () in
    ignore (C.compile_and_load cl ~name:"t1" W.table1_src);
    let lines = ref [] in
    if collect_via_hook then C.set_trace cl (fun s -> lines := s :: !lines)
    else
      C.subscribe_events cl (fun ev ->
          match E.legacy_string ev with
          | Some s -> lines := s :: !lines
          | None -> ());
    let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
    let tid =
      C.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l; V.Vint 2l ]
    in
    ignore (C.run_until_result cl tid);
    List.rev !lines
  in
  let hook = run true and bus = run false in
  if hook = [] then Alcotest.fail "the trace hook saw nothing";
  check Alcotest.(list string) "identical trace lines" hook bus

let test_move_emission_and_counters () =
  let cl = C.create ~archs:[ A.sparc; A.sun3 ] () in
  ignore (C.compile_and_load cl ~name:"t1" W.table1_src);
  let starts = ref 0 and finishes = ref 0 and conv_events = ref 0 in
  C.subscribe_events cl (fun ev ->
      match ev with
      | E.Ev_move_start _ -> incr starts
      | E.Ev_move_finish _ -> incr finishes
      | E.Ev_conversion _ -> incr conv_events
      | _ -> ());
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    C.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l; V.Vint 2l ]
  in
  ignore (C.run_until_result cl tid);
  (* two iterations of (move to dest; move home): four moves in all *)
  check Alcotest.int "move starts" 4 !starts;
  check Alcotest.int "move finishes" 4 !finishes;
  let c0 = C.node_counters cl 0 and c1 = C.node_counters cl 1 in
  check Alcotest.int "node 0 moves out" 2 c0.E.c_moves_out;
  check Alcotest.int "node 0 moves in" 2 c0.E.c_moves_in;
  check Alcotest.int "node 1 moves out" 2 c1.E.c_moves_out;
  check Alcotest.int "node 1 moves in" 2 c1.E.c_moves_in;
  check Alcotest.int "total moves in = starts" 4
    (C.total_counter cl (fun c -> c.E.c_moves_in));
  if !conv_events = 0 || c0.E.c_conv_calls = 0 then
    Alcotest.fail "enhanced-protocol moves must account conversion work";
  if c0.E.c_steps = 0 then Alcotest.fail "scheduling slices were not counted"

let remote_move_src =
  {|
object Agent
  operation go[] -> [r : int]
    move self to 1
    r <- thisnode
  end go
end Agent

object Main
  operation start[] -> [r : int]
    var a : Agent <- new Agent
    r <- a.go[]
  end start
end Main
|}

let test_lost_message_emission () =
  (* moving toward a dead node: the payload is refused at send time *)
  let cl = C.create ~archs:[ A.sparc; A.vax ] () in
  ignore (C.compile_and_load cl ~name:"lost" remote_move_src);
  let crashes = ref 0 and lost = ref 0 in
  C.subscribe_events cl (fun ev ->
      match ev with
      | E.Ev_crash _ -> incr crashes
      | E.Ev_msg_lost _ -> incr lost
      | _ -> ());
  C.crash_node cl 1;
  let main = C.create_object cl ~node:0 ~class_name:"Main" in
  let tid = C.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
  (match C.run_until_result cl ~max_events:200_000 tid with
  | _ -> Alcotest.fail "expected unavailability"
  | exception C.Thread_unavailable _ -> ());
  check Alcotest.int "one crash event" 1 !crashes;
  if !lost = 0 then Alcotest.fail "no Ev_msg_lost for a send to a dead node";
  check Alcotest.int "lost counter charged to the sender" !lost
    (C.node_counters cl 0).E.c_lost

(* Message events are built only while someone listens.  A subscriber
   attached part-way through a run must see, from then on, exactly the
   events — full descriptions included — that a subscriber attached at
   the start sees, and the counters must not depend on either. *)
let test_mid_run_subscriber () =
  let run ~attach_after =
    let cl = C.create ~archs:[ A.sparc; A.vax ] () in
    ignore (C.compile_and_load cl ~name:"t1" W.table1_src);
    let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
    let tid =
      C.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l; V.Vint 3l ]
    in
    let steps = ref 0 and seen = ref [] in
    let record ev =
      match ev with
      | E.Ev_msg_send _ | E.Ev_msg_deliver _ -> seen := (!steps, E.to_string ev) :: !seen
      | _ -> ()
    in
    if attach_after = 0 then C.subscribe_events cl record;
    while C.step_once cl do
      incr steps;
      if !steps = attach_after then C.subscribe_events cl record
    done;
    ignore (C.result cl tid);
    ( List.rev !seen,
      List.map
        (fun i ->
          let c = C.node_counters cl i in
          (c.E.c_sent, c.E.c_delivered))
        [ 0; 1 ] )
  in
  let full, full_counts = run ~attach_after:0 in
  let attach_after = 5 in
  let late, late_counts = run ~attach_after in
  if late = [] then Alcotest.fail "the late subscriber saw no message events";
  check
    Alcotest.(list (pair int string))
    "late subscriber sees the full stream's tail"
    (List.filter (fun (s, _) -> s >= attach_after) full)
    late;
  check Alcotest.(list (pair int int)) "counters identical" full_counts late_counts

(* on the reliable wire a message to a dead node is reported lost only
   when its retransmission budget is spent; the report describes the
   message it gave up on, in the words its send used *)
let test_reliable_loss_description () =
  let plan =
    Fault.Plan.make
      ~chaos:
        [ { Fault.Plan.ch_node = 1; ch_crash_at_us = 1.0; ch_restart_at_us = None } ]
      ()
  in
  let cl = C.create ~faults:plan ~archs:[ A.sparc; A.vax ] () in
  ignore (C.compile_and_load cl ~name:"lost" remote_move_src);
  let sent = ref [] and lost = ref [] and retransmits = ref 0 in
  C.subscribe_events cl (fun ev ->
      match ev with
      | E.Ev_msg_send { src = 0; dst = 1; desc; _ } -> sent := desc :: !sent
      | E.Ev_msg_lost { src = 0; dst = 1; _ } -> lost := Option.get (E.legacy_string ev) :: !lost
      | E.Ev_retransmit _ -> incr retransmits
      | _ -> ());
  let main = C.create_object cl ~node:0 ~class_name:"Main" in
  let tid = C.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
  (try ignore (C.run_until_result cl ~max_events:200_000 tid)
   with C.Thread_unavailable _ -> ());
  if !retransmits = 0 then Alcotest.fail "the reliable path never retransmitted";
  check Alcotest.(list string) "what was sent" [ "move of 1 object(s), 1 thread segment(s)" ]
    !sent;
  check Alcotest.(list string) "what was lost"
    [ "node 0 -> node 1: move of 1 object(s), 1 thread segment(s) LOST (destination down)" ]
    !lost

(* the legacy [set_trace] text of a Table 1 run, pinned byte for byte *)
let test_legacy_trace_pinned () =
  let cl = C.create ~archs:[ A.sparc; A.sun3 ] () in
  ignore (C.compile_and_load cl ~name:"t1" W.table1_src);
  let buf = Buffer.create 4096 in
  C.set_trace cl (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf '\n');
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    C.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l; V.Vint 3l ]
  in
  ignore (C.run_until_result cl tid);
  check Alcotest.string "trace digest" "cabd306ae71e9b1f66e3d177ee762442"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let churn_src =
  {|
object Cell
  var v : int <- 0
  operation set[x : int]
    v <- x
  end set
end Cell

object Main
  operation churn[n : int] -> [r : int]
    var i : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      var tmp : Cell <- new Cell
      tmp.set[i]
      var s : string <- "garbage " + "string"
      if s == "" then
        r <- i
      end if
    end loop
    r <- 42
  end churn
end Main
|}

(* both tiers, each run twice: once heard by a subscriber, whose events
   must match the bus counters, and once with no listener at all, where
   the bus builds no gc event and only counts.  The two runs must agree
   on every collection counter, the result and the final node clock. *)
let test_gc_emission () =
  let run ~gc_mode ~heard =
    let cl =
      C.create ~gc_threshold:(8 * 1024) ~gc_mode ~gc_budget:8 ~archs:[ A.sparc ] ()
    in
    ignore (C.compile_and_load cl ~name:"churn" churn_src);
    let gcs = ref 0 and freed = ref 0 and phases = ref 0 in
    if heard then
      C.subscribe_events cl (fun ev ->
          match ev with
          | E.Ev_gc { bytes_freed; _ } ->
            incr gcs;
            freed := !freed + bytes_freed
          | E.Ev_gc_phase _ -> incr phases
          | _ -> ());
    let main = C.create_object cl ~node:0 ~class_name:"Main" in
    let tid = C.spawn cl ~node:0 ~target:main ~op:"churn" ~args:[ V.Vint 200l ] in
    let result =
      match C.run_until_result cl tid with
      | Some (V.Vint r) -> Int32.to_int r
      | _ -> Alcotest.fail "wrong result under automatic GC"
    in
    let c = C.node_counters cl 0 in
    if heard then begin
      if !gcs = 0 then Alcotest.fail "no Ev_gc events under a tight threshold";
      if !freed = 0 then Alcotest.fail "the collections freed nothing";
      check Alcotest.int "collection counter" !gcs c.E.c_collections;
      check Alcotest.int "freed-bytes counter" !freed c.E.c_gc_bytes_freed;
      check Alcotest.int "increment counter" !phases c.E.c_gc_increments;
      check Alcotest.int "cluster collections agree" !gcs
        (C.total_counter cl (fun c -> c.E.c_collections))
    end;
    ( (result, c.E.c_collections, c.E.c_gc_increments, c.E.c_gc_bytes_freed),
      Ert.Kernel.time_us (C.kernel cl 0) )
  in
  let counts = Alcotest.(pair int (pair int (pair int int))) in
  let flat (r, a, b, c) = (r, (a, (b, c))) in
  List.iter
    (fun (name, gc_mode) ->
      let ((result, collections, increments, _) as heard), heard_us =
        run ~gc_mode ~heard:true
      in
      let alone, alone_us = run ~gc_mode ~heard:false in
      check Alcotest.int (name ^ ": result") 42 result;
      check counts (name ^ ": counters without a listener") (flat heard) (flat alone);
      check (Alcotest.float 0.0) (name ^ ": final clock without a listener") heard_us
        alone_us;
      match gc_mode with
      | C.Gc_stw -> check Alcotest.int "stop-the-world emits no phases" 0 increments
      | C.Gc_incremental ->
        if increments <= collections then
          Alcotest.failf "%d increments for %d collections: no cycle ran in steps"
            increments collections)
    [ ("stop-the-world", C.Gc_stw); ("incremental", C.Gc_incremental) ]

let suites =
  [
    ( "events",
      [
        Alcotest.test_case "legacy strings reproduce the seed trace" `Quick
          test_legacy_strings;
        Alcotest.test_case "set_trace and the bus see identical lines" `Quick
          test_trace_hook_matches_bus;
        Alcotest.test_case "moves emit and count per node" `Quick
          test_move_emission_and_counters;
        Alcotest.test_case "lost messages emit and count" `Quick
          test_lost_message_emission;
        Alcotest.test_case "collections emit and count" `Quick test_gc_emission;
        Alcotest.test_case "a mid-run subscriber gets full descriptions" `Quick
          test_mid_run_subscriber;
        Alcotest.test_case "reliable-path loss text unchanged" `Quick
          test_reliable_loss_description;
        Alcotest.test_case "legacy trace of a Table 1 run pinned" `Quick
          test_legacy_trace_pinned;
      ] );
  ]
