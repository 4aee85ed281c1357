(* Thread checkpointing: the machine-independent format as a persistence
   format.  A thread parked at a bus stop is serialised to bytes, removed,
   and later rebuilt — on the same machine or a different architecture.

   To park a compute loop deterministically we spawn a second thread:
   with another segment ready, the loop-back poll stops fire, so each
   kernel step executes exactly one loop iteration and the threads
   alternate — the same schedule on every architecture. *)

module A = Isa.Arch
module V = Ert.Value
module C = Mobility.Checkpoint

let check = Alcotest.check

let sum_src =
  {|
object Main
  var progress : int <- 0
  operation start[n : int] -> [r : int]
    var i : int <- 0
    var sum : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      sum <- sum + i
      progress <- i
    end loop
    r <- sum
  end start
  operation seen[] -> [r : int]
    r <- progress
  end seen
end Main

object Mover
  operation relocate[m : Main, dest : int]
    move m to dest
  end relocate
end Mover
|}

let expected n = n * (n + 1) / 2

let setup archs =
  let cl = Core.Cluster.create ~archs () in
  ignore (Core.Cluster.compile_and_load cl ~name:"ckpt" sum_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  (cl, main)

let start cl main n =
  Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start"
    ~args:[ V.Vint (Int32.of_int n) ]

(* a victim thread plus a companion that keeps the poll stops firing *)
let start_pair cl main n =
  let victim = start cl main n in
  let companion = start cl main 200 in
  (victim, companion)

let step_some cl k =
  for _ = 1 to k do
    ignore (Core.Cluster.step_once cl)
  done

let test_suspend_restore_same_node () =
  List.iter
    (fun arch ->
      let cl, main = setup [ arch ] in
      let tid, companion = start_pair cl main 40 in
      step_some cl 12;
      let image = C.suspend (Core.Cluster.kernel cl 0) ~thread:tid in
      check Alcotest.int (arch.A.id ^ " image names the thread") tid
        (C.thread_of image);
      (* with the victim suspended, the cluster drains without its result *)
      Core.Cluster.run cl;
      (match Core.Cluster.result cl tid with
      | None -> ()
      | Some _ -> Alcotest.fail "suspended thread must not produce a result");
      (match Core.Cluster.result cl companion with
      | Some (Some (V.Vint v)) ->
        check Alcotest.int (arch.A.id ^ " companion") (expected 200) (Int32.to_int v)
      | _ -> Alcotest.fail "companion thread lost");
      C.restore (Core.Cluster.kernel cl 0) image;
      match Core.Cluster.run_until_result cl tid with
      | Some (V.Vint v) ->
        check Alcotest.int (arch.A.id ^ " sum") (expected 40) (Int32.to_int v)
      | _ -> Alcotest.fail "restored thread produced no result")
    A.all

let test_capture_is_nondestructive () =
  let cl, main = setup [ A.sparc ] in
  let tid, _ = start_pair cl main 25 in
  step_some cl 10;
  let image = C.capture (Core.Cluster.kernel cl 0) ~thread:tid in
  (* while the original lives, its segment ids are taken and the copy
     cannot also be installed (no thread duplication) *)
  (match C.restore (Core.Cluster.kernel cl 0) image with
  | () -> Alcotest.fail "restoring a live thread's copy must be rejected"
  | exception C.Not_checkpointable _ -> ());
  (* and the original keeps running, unharmed by the capture *)
  match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) -> check Alcotest.int "sum" (expected 25) (Int32.to_int v)
  | _ -> Alcotest.fail "no result"

let test_heterogeneous_restore () =
  (* suspend on the SPARC, move the object to the VAX, restore there: the
     thread continues on a different architecture mid-loop *)
  let cl, main = setup [ A.sparc; A.vax ] in
  let tid, _ = start_pair cl main 60 in
  step_some cl 20;
  let k0 = Core.Cluster.kernel cl 0 in
  let image = C.suspend k0 ~thread:tid in
  (* restoring where the object does not live is refused *)
  (match C.restore (Core.Cluster.kernel cl 1) image with
  | () -> Alcotest.fail "restore without the object must be rejected"
  | exception C.Not_checkpointable _ -> ());
  (* drain the companion, then ship the (now threadless) object over *)
  Core.Cluster.run cl;
  let mover = Core.Cluster.create_object cl ~node:0 ~class_name:"Mover" in
  let mt =
    Core.Cluster.spawn cl ~node:0 ~target:mover ~op:"relocate"
      ~args:[ V.Vref main; V.Vint 1l ]
  in
  Core.Cluster.run cl;
  (match Core.Cluster.result cl mt with
  | Some _ -> ()
  | None -> Alcotest.fail "move did not complete");
  check (Alcotest.option Alcotest.int) "object on the VAX" (Some 1)
    (Core.Cluster.where_is cl main);
  C.restore (Core.Cluster.kernel cl 1) image;
  (match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) -> check Alcotest.int "sum" (expected 60) (Int32.to_int v)
  | _ -> Alcotest.fail "no result after heterogeneous restore");
  (* the loop really did resume mid-way and ran to completion there *)
  let probe = Core.Cluster.spawn cl ~node:1 ~target:main ~op:"seen" ~args:[] in
  match Core.Cluster.run_until_result cl probe with
  | Some (V.Vint 60l) -> ()
  | _ -> Alcotest.fail "object state lost across checkpoint"

let test_image_is_architecture_neutral () =
  (* the same program suspended after the same number of scheduling events
     yields bit-identical images from every architecture: bus stops, slot
     indices and values are all machine-independent *)
  let image_of arch =
    let cl, main = setup [ arch ] in
    let tid, _ = start_pair cl main 30 in
    step_some cl 9;
    C.suspend (Core.Cluster.kernel cl 0) ~thread:tid
  in
  let reference = image_of A.vax in
  List.iter
    (fun arch ->
      check Alcotest.string (arch.A.id ^ " image equals the VAX image")
        reference (image_of arch))
    A.all

let test_checkpoint_preemptive_cluster () =
  (* under a preemptive quantum the thread may sit between stops; the
     cluster-level wrapper quiesces it to the next stop first *)
  let cl = Core.Cluster.create ~quantum:37 ~archs:[ A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"ckpt" sum_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let tid = start cl main 50 in
  step_some cl 15;
  let image = Core.Cluster.checkpoint_thread cl ~node:0 tid in
  Core.Cluster.run cl;
  Core.Cluster.restore_thread cl ~node:0 image;
  match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) -> check Alcotest.int "sum" (expected 50) (Int32.to_int v)
  | _ -> Alcotest.fail "no result"

let test_parse_inspection () =
  let cl, main = setup [ A.hp9000_433 ] in
  let tid, _ = start_pair cl main 20 in
  step_some cl 8;
  let image = C.capture (Core.Cluster.kernel cl 0) ~thread:tid in
  match C.parse image with
  | [ ms ] ->
    check Alcotest.int "thread" tid ms.Mobility.Mi_frame.ms_thread;
    check Alcotest.bool "has frames" true (ms.Mobility.Mi_frame.ms_frames <> []);
    (match ms.Mobility.Mi_frame.ms_status with
    | Mobility.Mi_frame.Ms_parked _ -> ()
    | _ -> Alcotest.fail "captured segment must be parked at a stop")
  | _ -> Alcotest.fail "expected exactly one segment"

(* Image format v2: u32 segment count, validated restores ---------------- *)

let capture_image () =
  let cl, main = setup [ A.sparc ] in
  let tid, _ = start_pair cl main 30 in
  step_some cl 10;
  (cl, tid, C.capture (Core.Cluster.kernel cl 0) ~thread:tid)

let test_v2_header () =
  let _, _, image = capture_image () in
  (* "EMC2" magic, then the count as a u32 — v1's u16 count silently
     truncated threads of more than 65535 segments *)
  check Alcotest.string "v2 magic" "EMC2" (String.sub image 0 4);
  check Alcotest.string "u32 count of one segment" "\x00\x00\x00\x01"
    (String.sub image 4 4);
  match C.parse image with
  | [ _ ] -> ()
  | l -> Alcotest.failf "expected one segment, parsed %d" (List.length l)

let test_v1_image_rejected () =
  let stats = Enet.Conversion_stats.create () in
  let w = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  Enet.Wire.Writer.u32 w 0x454d43l (* "EMC", the v1 magic *);
  Enet.Wire.Writer.u16 w 1;
  let v1 = Enet.Wire.Writer.contents w in
  match C.parse v1 with
  | _ -> Alcotest.fail "a v1 image must be rejected, not misread"
  | exception Invalid_argument _ -> ()

let test_insane_count_rejected () =
  (* a corrupt length prefix must not reach List.init *)
  let _, _, image = capture_image () in
  let huge = String.sub image 0 4 ^ "\x7f\xff\xff\xff" in
  match C.parse huge with
  | _ -> Alcotest.fail "an unreasonable segment count must be rejected"
  | exception Invalid_argument _ -> ()

let test_duplicate_ids_leave_kernel_unchanged () =
  let cl, main = setup [ A.sparc ] in
  let tid, _ = start_pair cl main 30 in
  step_some cl 10;
  let k = Core.Cluster.kernel cl 0 in
  let image = C.suspend k ~thread:tid in
  (* splice the image's one segment in twice: same ms_seg_id both times *)
  let body = String.sub image 8 (String.length image - 8) in
  let dup = String.sub image 0 4 ^ "\x00\x00\x00\x02" ^ body ^ body in
  check Alcotest.int "tampered image parses as two segments" 2
    (List.length (C.parse dup));
  let seg_ids k =
    List.sort compare
      (List.map (fun s -> s.Ert.Thread.seg_id) (Ert.Kernel.segments k))
  in
  let before = seg_ids k in
  (match C.restore k dup with
  | () -> Alcotest.fail "duplicate segment ids must be rejected"
  | exception C.Not_checkpointable _ -> ());
  (* validation happens before any rebuild: nothing was installed *)
  check (Alcotest.list Alcotest.int) "kernel unchanged by refused restore"
    before (seg_ids k);
  (* and the untampered image still restores and runs to completion *)
  C.restore k image;
  match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) -> check Alcotest.int "sum" (expected 30) (Int32.to_int v)
  | _ -> Alcotest.fail "no result after the genuine restore"

(* property: checkpointing at ANY scheduling point — including before the
   first instruction (a spawn record) and after the thread has finished —
   never corrupts the result *)
let prop_checkpoint_any_time =
  QCheck.Test.make ~name:"suspend/restore at a random point preserves the result"
    ~count:40
    QCheck.(pair (int_range 0 120) (int_range 0 4))
    (fun (steps, arch_idx) ->
      let arch = List.nth A.all arch_idx in
      let cl, main = setup [ arch ] in
      let tid, _ = start_pair cl main 35 in
      step_some cl steps;
      (try
         let image = C.suspend (Core.Cluster.kernel cl 0) ~thread:tid in
         (* let everything else drain while the thread is only bytes *)
         Core.Cluster.run cl;
         C.restore (Core.Cluster.kernel cl 0) image
       with C.Not_checkpointable _ ->
         (* the thread had already finished — nothing to suspend *)
         ());
      match Core.Cluster.run_until_result cl tid with
      | Some (V.Vint v) -> Int32.to_int v = expected 35
      | _ -> false)

let suites =
  [
    ( "checkpoint",
      [
        Alcotest.test_case "suspend and restore on every architecture" `Quick
          test_suspend_restore_same_node;
        Alcotest.test_case "capture is non-destructive, no duplication" `Quick
          test_capture_is_nondestructive;
        Alcotest.test_case "heterogeneous restore (SPARC to VAX)" `Quick
          test_heterogeneous_restore;
        Alcotest.test_case "image is architecture-neutral" `Quick
          test_image_is_architecture_neutral;
        Alcotest.test_case "preemptive cluster wrapper quiesces" `Quick
          test_checkpoint_preemptive_cluster;
        Alcotest.test_case "parse for inspection" `Quick test_parse_inspection;
        Alcotest.test_case "v2 header: magic and u32 count" `Quick test_v2_header;
        Alcotest.test_case "v1 image rejected" `Quick test_v1_image_rejected;
        Alcotest.test_case "unreasonable count rejected" `Quick
          test_insane_count_rejected;
        Alcotest.test_case "duplicate ids refused, kernel untouched" `Quick
          test_duplicate_ids_leave_kernel_unchanged;
        QCheck_alcotest.to_alcotest prop_checkpoint_any_time;
      ] );
  ]
