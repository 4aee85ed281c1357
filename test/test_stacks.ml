(* Stack-region recycling: a node reuses the stack of a segment that
   left or died, so a thread bouncing between two nodes — or a stream of
   remote invocations — runs in bounded simulated memory, and a stack
   still held by the staying run of a split thread is never handed to a
   later landing. *)

module A = Isa.Arch
module V = Ert.Value
module K = Ert.Kernel
module T = Ert.Thread
module C = Core.Cluster
module W = Core.Workloads

let check = Alcotest.check

(* per node: (heap break, size of the simulated memory) *)
let footprint cl =
  Array.to_list
    (Array.map
       (fun k -> (Ert.Heap.brk (K.heap k), Isa.Memory.size (K.mem k)))
       (C.kernels cl))

let footprint_t = Alcotest.(list (pair int int))

let run_int cl tid =
  match C.run_until_result cl tid with
  | Some (V.Vint v) -> Int32.to_int v
  | _ -> Alcotest.fail "thread produced no integer result"

let no_violations cl =
  match C.check_invariants cl with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "invariant violated: %a" Fault.Invariants.pp_violation v

let test_round_trips_bounded () =
  (* every landing installs a fresh descriptor and the previous visit's
     one, by then a stale proxy, is left to the collector; the free list
     holds a swept descriptor for reuse from the second trip on.  The
     stacks are what only recycling can bound. *)
  let cl = C.create ~gc_threshold:(8 * 1024) ~archs:[ A.sparc; A.sun3 ] () in
  ignore (C.compile_and_load cl ~name:"t1" W.table1_src);
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  let trips n =
    ignore
      (run_int cl
         (C.spawn cl ~node:0 ~target:agent ~op:"trip"
            ~args:[ V.Vint 1l; V.Vint (Int32.of_int n) ]))
  in
  trips 2;
  let warm = footprint cl in
  trips 500;
  check footprint_t "no heap or memory growth over 500 round trips" warm
    (footprint cl);
  no_violations cl;
  List.iter
    (fun k ->
      if List.length (K.pooled_stacks k) > 1 then
        Alcotest.fail "a one-thread workload should need one stack per node")
    (Array.to_list (C.kernels cl))

let rpc_src =
  {|
object Adder
  operation add[a : int, b : int] -> [r : int]
    r <- a + b
  end add
end Adder

object Caller
  operation sum[a : Adder, n : int] -> [r : int]
    var i : int <- 0
    var s : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      s <- a.add[s, i]
    end loop
    r <- s
  end sum
end Caller
|}

let test_remote_invocations_bounded () =
  let cl = C.create ~archs:[ A.vax; A.hp9000_433 ] () in
  ignore (C.compile_and_load cl ~name:"rpc" rpc_src);
  let adder = C.create_object cl ~node:1 ~class_name:"Adder" in
  let caller = C.create_object cl ~node:0 ~class_name:"Caller" in
  let calls n =
    run_int cl
      (C.spawn cl ~node:0 ~target:caller ~op:"sum"
         ~args:[ V.Vref adder; V.Vint (Int32.of_int n) ])
  in
  check Alcotest.int "one call" 1 (calls 1);
  let after_first = footprint cl in
  check Alcotest.int "300 calls" (300 * 301 / 2) (calls 300);
  check footprint_t "no heap or memory growth over 300 remote invocations"
    after_first (footprint cl);
  no_violations cl

(* [Main.start] calls [h.hop]; the first [move self] of the Hopper splits
   the thread: hop's run leaves, start's run stays on node 0 awaiting the
   reply, holding the original stack with a and b on it.  hop then lands
   on node 0 again and again while start waits. *)
let split_src =
  {|
object Hopper
  operation hop[n : int] -> [r : int]
    var home : int <- thisnode
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      move self to 1
      acc <- acc + thisnode * i
      move self to home
      acc <- acc + i
    end loop
    r <- acc
  end hop
end Hopper

object Main
  operation start[n : int] -> [r : int]
    var a : int <- 11
    var b : int <- 22
    var h : Hopper <- new Hopper
    var got : int <- h.hop[n]
    r <- got * 1000 + a + b
  end start
end Main
|}

let test_split_run_keeps_its_stack () =
  (* virtual end times pinned from the implementation that never reused
     a stack: recycling must not move them *)
  List.iter
    (fun (home, dest, t0_us, t1_us) ->
      let cl = C.create ~archs:[ home; dest ] () in
      ignore (C.compile_and_load cl ~name:"split" split_src);
      let main = C.create_object cl ~node:0 ~class_name:"Main" in
      let tid = C.spawn cl ~node:0 ~target:main ~op:"start" ~args:[ V.Vint 5l ] in
      let k0 = C.kernel cl 0 in
      let held = ref None and landings = ref 0 in
      let seen_landed = ref [] in
      while C.result cl tid = None && C.step_once cl do
        no_violations cl;
        let mine = List.filter (fun s -> s.T.seg_thread = tid) (K.segments k0) in
        let waiting, running =
          List.partition
            (fun s ->
              match s.T.seg_status with
              | T.Awaiting_reply _ -> true
              | _ -> false)
            mine
        in
        match waiting with
        | [] -> ()
        | [ bottom ] ->
          let top = bottom.T.seg_stack_top in
          (match !held with
          | None -> held := Some top
          | Some h -> check Alcotest.int "the staying run keeps its stack" h top);
          if List.mem top (K.pooled_stacks k0) then
            Alcotest.fail "a held stack sits in the pool";
          List.iter
            (fun (s : T.segment) ->
              if s.T.seg_stack_top = top then
                Alcotest.fail "a landing was given the staying run's stack";
              if not (List.memq s !seen_landed) then begin
                seen_landed := s :: !seen_landed;
                incr landings
              end)
            running
        | _ -> Alcotest.fail "more than one run of the thread awaits a reply"
      done;
      let name = home.A.id ^ "->" ^ dest.A.id in
      if !held = None then Alcotest.failf "%s: the thread never split" name;
      if !landings < 5 then
        Alcotest.failf "%s: only %d landings while the staying run waited" name
          !landings;
      check (Alcotest.option Alcotest.int) (name ^ " result") (Some 30033)
        (match C.result cl tid with
        | Some (Some (V.Vint v)) -> Some (Int32.to_int v)
        | _ -> None);
      check (Alcotest.float 0.0) (name ^ " node 0 time") t0_us (K.time_us k0);
      check (Alcotest.float 0.0) (name ^ " node 1 time") t1_us
        (K.time_us (C.kernel cl 1)))
    [
      (A.sparc, A.vax, 0x1.f7c41dddddddap+18, 0x1.e8f1866666663p+18);
      (A.sun3, A.sparc, 0x1.b07273b425ed1p+18, 0x1.95fa85999999ap+18);
      (A.vax, A.hp9000_433, 0x1.b5422eeeeeeedp+18, 0x1.935baeeeeeeeep+18);
    ]

let test_reused_stack_is_zeroed () =
  let cl = C.create ~archs:[ A.sparc; A.sparc ] () in
  ignore (C.compile_and_load cl ~name:"t1" W.table1_src);
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  ignore
    (run_int cl
       (C.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l; V.Vint 1l ]));
  let k = C.kernel cl 1 in
  match K.pooled_stacks k with
  | [] -> Alcotest.fail "the landing's stack was not pooled"
  | top :: _ ->
    let reused = K.alloc_stack k in
    check Alcotest.int "last released is reused first" top reused;
    check Alcotest.string "reused region reads as fresh memory"
      (String.make K.stack_bytes '\000')
      (Isa.Memory.read_string (K.mem k) (reused - K.stack_bytes) K.stack_bytes)

let sum_src =
  {|
object Main
  operation start[n : int] -> [r : int]
    var i : int <- 0
    var sum : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      sum <- sum + i
    end loop
    r <- sum
  end start
end Main

object Agent
  operation go[] -> [r : int]
    move self to 1
    r <- thisnode
  end go
end Agent

object Caller
  operation start[] -> [r : int]
    var a : Agent <- new Agent
    r <- a.go[]
  end start
end Caller
|}

let test_suspend_and_abort_release () =
  (* a checkpoint suspend pools the thread's stack; restoring on the same
     node takes it straight back *)
  let cl = C.create ~archs:[ A.sparc; A.vax ] () in
  ignore (C.compile_and_load cl ~name:"sum" sum_src);
  let main = C.create_object cl ~node:0 ~class_name:"Main" in
  let start n = C.spawn cl ~node:0 ~target:main ~op:"start" ~args:[ V.Vint n ] in
  (* a companion keeps the loop's poll stops firing, so the victim parks
     at a bus stop after every iteration *)
  let victim = start 40l and companion = start 200l in
  for _ = 1 to 12 do
    ignore (C.step_once cl)
  done;
  let k = C.kernel cl 0 in
  let victim_top =
    match List.filter (fun s -> s.T.seg_thread = victim) (K.segments k) with
    | [ s ] -> s.T.seg_stack_top
    | _ -> Alcotest.fail "expected one victim segment"
  in
  let image = Mobility.Checkpoint.suspend k ~thread:victim in
  check Alcotest.(list int) "suspend pooled the stack" [ victim_top ] (K.pooled_stacks k);
  let brk = Ert.Heap.brk (K.heap k) in
  Mobility.Checkpoint.restore k image;
  check Alcotest.(list int) "restore took it back" [] (K.pooled_stacks k);
  check Alcotest.int "no new heap" brk (Ert.Heap.brk (K.heap k));
  check Alcotest.int "victim finishes" 820 (run_int cl victim);
  check Alcotest.int "companion finishes" 20100 (run_int cl companion);
  (* a thread aborted by a refused move gives its stack back too *)
  let caller = C.create_object cl ~node:0 ~class_name:"Caller" in
  C.crash_node cl 1;
  let pool = K.pooled_stacks k in
  let tid = C.spawn cl ~node:0 ~target:caller ~op:"start" ~args:[] in
  check Alcotest.int "the spawn reused a pooled stack" (List.length pool - 1)
    (List.length (K.pooled_stacks k));
  (match C.run_until_result cl tid with
  | _ -> Alcotest.fail "expected unavailability"
  | exception C.Thread_unavailable _ -> ());
  check Alcotest.int "no segment left" 0 (List.length (K.segments k));
  check Alcotest.(list int) "the aborted thread's stack is pooled again" pool
    (K.pooled_stacks k);
  no_violations cl

let test_oracle_flags_misuse () =
  let stack_violations cl =
    List.filter
      (fun v -> v.Fault.Invariants.v_invariant = "stack-ownership")
      (C.check_invariants cl)
  in
  let cl = C.create ~archs:[ A.sparc; A.sun3 ] () in
  ignore (C.compile_and_load cl ~name:"t1" W.table1_src);
  let agent = C.create_object cl ~node:0 ~class_name:"Agent" in
  ignore (C.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l; V.Vint 1l ]);
  let k = C.kernel cl 0 in
  let seg =
    match K.segments k with
    | [ s ] -> s
    | _ -> Alcotest.fail "expected the root segment alone"
  in
  check Alcotest.int "healthy" 0 (List.length (stack_violations cl));
  (* another thread's segment on the same region *)
  let intruder = { seg with T.seg_id = K.fresh_seg_id k; seg_thread = K.fresh_tid k } in
  K.register_segment k intruder;
  check Alcotest.int "foreign sharer flagged" 1 (List.length (stack_violations cl));
  K.unregister_segment k intruder;
  (* a registered segment whose region went back to the pool *)
  K.unregister_segment k seg;
  K.release_stack k seg;
  K.register_segment k seg;
  check Alcotest.int "pooled stack in use flagged" 1 (List.length (stack_violations cl))

let suites =
  [
    ( "stacks",
      [
        Alcotest.test_case "500 round trips in bounded memory" `Quick
          test_round_trips_bounded;
        Alcotest.test_case "300 remote invocations in bounded memory" `Quick
          test_remote_invocations_bounded;
        Alcotest.test_case "a split's staying run keeps its stack" `Quick
          test_split_run_keeps_its_stack;
        Alcotest.test_case "a reused stack is zero-filled" `Quick
          test_reused_stack_is_zeroed;
        Alcotest.test_case "suspend and abort release their stacks" `Quick
          test_suspend_and_abort_release;
        Alcotest.test_case "the stack-ownership oracle flags misuse" `Quick
          test_oracle_flags_misuse;
      ] );
  ]
