(* System-call results parked across a move.

   A system call's result is parked with the segment and applied at its
   next dispatch, so a segment can be captured between the two.  Each
   case stops a thread right after the kernel serviced one call (new,
   thisnode, locate, timenow, string ==, and a monitor exit's dequeue),
   ships it to a node of another architecture before the result is
   applied, and checks that it resumes with the value the call made on
   the first node. *)

module A = Isa.Arch
module C = Core.Cluster
module K = Ert.Kernel
module T = Ert.Thread
module V = Ert.Value

let check = Alcotest.check

let src =
  {|
object Cell
  var v : int <- 0
  operation bump[n : int] -> [r : int]
    v <- v + n
    r <- v
  end bump
end Cell

object Probe
  var entries : int <- 0
  operation made[] -> [r : int]
    var c : Cell <- new Cell
    r <- c.bump[5]
  end made
  operation here[] -> [r : int]
    r <- thisnode
  end here
  operation where[c : Cell] -> [r : int]
    r <- locate[c]
  end where
  operation clock[] -> [r : int]
    r <- timenow
  end clock
  operation same[] -> [r : bool]
    var s : string <- "ab" + "c"
    r <- s == "abc"
  end same
  monitor operation counted[] -> [r : int]
    entries <- entries + 1
    r <- entries
  end counted
end Probe
|}

(* node 0 SPARC, node 1 VAX, node 2 Sun-3 *)
let cluster () =
  let cl = C.create ~archs:[ A.sparc; A.vax; A.sun3 ] () in
  ignore (C.compile_and_load cl ~name:"results" src);
  cl

let is_new = function Emc.Ir.Sk_new _ -> true | _ -> false
let is_builtin bi = function Emc.Ir.Sk_builtin { bi = b; _ } -> b = bi | _ -> false
let is_dequeue = function Emc.Ir.Sk_mon_dequeue -> true | _ -> false

(* run until the thread's segment on [node] is parked at a stop of the
   wanted kind with its call serviced but not yet completed *)
let stop_after_call cl ~node tid wanted =
  let k = C.kernel cl node in
  let parked () =
    List.find_opt
      (fun (seg : T.segment) ->
        seg.T.seg_thread = tid
        && (match seg.T.seg_status with
           | T.Parked Isa.Suspend.Run -> false
           | T.Parked _ -> true
           | T.Running | T.Blocked_monitor _ | T.Awaiting_reply _ | T.Dead -> false)
        &&
        match K.stop_at_pc k seg.T.seg_ctx.Isa.Machine.pc with
        | Some (_, entry) -> wanted entry.Emc.Busstop.be_kind
        | None -> false)
      (K.segments k)
  in
  let rec go n =
    match parked () with
    | Some seg -> seg
    | None ->
      if n = 0 || not (C.step_once cl) then Alcotest.fail "the call was never serviced";
      go (n - 1)
  in
  go 10_000

let int_result cl tid =
  match C.run_until_result cl tid with
  | Some (V.Vint v) -> Int32.to_int v
  | Some (V.Vbool b) -> Bool.to_int b
  | _ -> Alcotest.fail "no int or bool result"

(* each call, its stop, the moves it makes (from, to) and the result
   pinned for a thread started on the first node (the cell [where]
   locates lives on node 2).  A VAX dequeues with a REMQUE instruction,
   not a system call, so no segment parks at a VAX dequeue stop, and one
   parked at a SPARC dequeue stop lands on a VAX at a PC that is no
   stop; the dequeue moves between SPARC and Sun-3. *)
let cases =
  let moves = [ (0, 1); (1, 2) ] in
  [
    ("new", "made", is_new, moves, fun _ -> 5);
    ("thisnode", "here", is_builtin Emc.Ir.Bthisnode, moves, Fun.id);
    ("locate", "where", is_builtin Emc.Ir.Blocate, moves, fun _ -> 2);
    ( "timenow", "clock", is_builtin Emc.Ir.Btimenow, moves,
      fun node -> if node = 0 then 5012 else 15042 );
    ("==", "same", is_builtin Emc.Ir.Bseq, moves, fun _ -> 1);
    ("monitor dequeue", "counted", is_dequeue, [ (0, 2); (2, 0) ], fun _ -> 1);
  ]

let spawn_probe cl ~node op =
  let probe = C.create_object cl ~node ~class_name:"Probe" in
  let args =
    if op = "where" then [ V.Vref (C.create_object cl ~node:2 ~class_name:"Cell") ] else []
  in
  (probe, C.spawn cl ~node ~target:probe ~op ~args)

let test_evicted_before_completion () =
  List.iter
    (fun (call, op, wanted, moves, expected) ->
      List.iter
        (fun (node, dest) ->
          let cl = cluster () in
          let probe, tid = spawn_probe cl ~node op in
          let seg = stop_after_call cl ~node tid wanted in
          C.evict_thread cl ~node ~seg_id:seg.T.seg_id ~dest;
          let got = int_result cl tid in
          let name = Printf.sprintf "%s parked on node %d, evicted to %d" call node dest in
          check Alcotest.int name (expected node) got;
          check Alcotest.(option int) (name ^ ": moved") (Some dest) (C.where_is cl probe))
        moves)
    cases

let test_checkpointed_before_completion () =
  let cl = cluster () in
  let _, tid = spawn_probe cl ~node:0 "made" in
  ignore (stop_after_call cl ~node:0 tid is_new : T.segment);
  let image = C.checkpoint_thread cl ~node:0 tid in
  C.run cl;
  C.restore_thread cl ~node:0 image;
  check Alcotest.int "new's result survives a checkpoint" 5 (int_result cl tid)

(* the probe is rooted as the cluster's collector roots objects the
   harness holds *)
let test_collected_before_completion () =
  let cl = cluster () in
  let probe, tid = spawn_probe cl ~node:0 "made" in
  ignore (stop_after_call cl ~node:0 tid is_new : T.segment);
  let k = C.kernel cl 0 in
  let before = List.length (K.objects k) in
  Ert.Gc.collect (Ert.Gc.create k) ~extra_roots:[ probe ] ~extra_addrs:[];
  check Alcotest.int "the new object survives a collection" before
    (List.length (K.objects k));
  check Alcotest.int "and its result is usable" 5 (int_result cl tid)

(* Two threads on one node, so every loop-bottom poll is taken: one
   loops on [thisnode] (an int result), the other on string [==] (a
   bool).  A step that completes either call parks next at the poll, and
   once warm it allocates nothing. *)
let loop_src =
  {|
object Loop
  operation ints[n : int] -> [r : int]
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      acc <- acc + thisnode
    end loop
    r <- acc
  end ints
  operation bools[n : int] -> [r : int]
    var i : int <- 0
    var hits : int <- 0
    var s : string <- "x"
    loop
      exit when i >= n
      i <- i + 1
      if s == "x" then
        hits <- hits + 1
      end if
    end loop
    r <- hits
  end bools
end Loop
|}

let test_word_completion_allocates_nothing () =
  List.iter
    (fun (arch : A.t) ->
      let cl = C.create ~archs:[ arch ] () in
      ignore (C.compile_and_load cl ~name:"loop" loop_src);
      let o = C.create_object cl ~node:0 ~class_name:"Loop" in
      List.iter
        (fun op -> ignore (C.spawn cl ~node:0 ~target:o ~op ~args:[ V.Vint 40l ] : T.tid))
        [ "ints"; "bools" ];
      let k = C.kernel cl 0 in
      let step () = ignore (K.step k : K.outcall list) in
      let checked = Array.make 2 0 in
      for n = 1 to 120 do
        let before =
          List.map
            (fun (seg : T.segment) ->
              (seg, seg.T.seg_status, seg.T.seg_ctx.Isa.Machine.insns))
            (K.segments k)
        in
        let words = Test_dispatch.minor_words step in
        List.iter
          (fun ((seg : T.segment), status, insns) ->
            if seg.T.seg_ctx.Isa.Machine.insns <> insns && n > 20 then
              match status with
              | T.Parked (Isa.Suspend.Complete_word (w, _)) ->
                let i = if w = Isa.Suspend.Wint then 0 else 1 in
                checked.(i) <- checked.(i) + 1;
                check (Alcotest.float 0.0)
                  (Printf.sprintf "%s step %d completing a word" arch.A.id n)
                  0.0 words
              | _ -> ())
          before
      done;
      if checked.(0) = 0 || checked.(1) = 0 then
        Alcotest.failf "%s: no warm step completed both an int and a bool" arch.A.id)
    [ A.sparc; A.vax; A.sun3 ]

let suites =
  [
    ( "results",
      [
        Alcotest.test_case "a warm step completing a word allocates nothing" `Quick
          test_word_completion_allocates_nothing;
        Alcotest.test_case "parked results survive an eviction to another arch" `Quick
          test_evicted_before_completion;
        Alcotest.test_case "a parked reference survives a checkpoint" `Quick
          test_checkpointed_before_completion;
        Alcotest.test_case "a parked reference roots its object" `Quick
          test_collected_before_completion;
      ] );
  ]
