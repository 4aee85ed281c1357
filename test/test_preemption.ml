(* Preemptive (Trellis/Owl-style) scheduling: control may be taken from a
   thread anywhere, so a thread can be parked between bus stops; before
   migration its state is made well-defined by executing it forward to
   the next stop (section 2.2.1).  These tests run the same programs
   under both control-transfer disciplines and compare. *)

module A = Isa.Arch
module V = Ert.Value

let check = Alcotest.check

let run_with ?quantum archs src ~cls ~op ~args =
  let cl = Core.Cluster.create ?quantum ~archs () in
  ignore (Core.Cluster.compile_and_load cl ~name:"pre" src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:cls in
  let tid = Core.Cluster.spawn cl ~node:0 ~target:main ~op ~args in
  Core.Cluster.run_until_result cl tid

let compute_src =
  {|
object Main
  operation start[] -> [r : int]
    var i : int <- 0
    var acc : int <- 7
    loop
      exit when i >= 200
      i <- i + 1
      acc <- acc * 3 + i - acc / 2
    end loop
    r <- acc
  end start
end Main
|}

let test_same_results_under_quantum () =
  List.iter
    (fun arch ->
      let a = run_with [ arch ] compute_src ~cls:"Main" ~op:"start" ~args:[] in
      List.iter
        (fun q ->
          let b = run_with ~quantum:q [ arch ] compute_src ~cls:"Main" ~op:"start" ~args:[] in
          if a <> b then
            Alcotest.failf "%s: quantum %d changed the result" arch.A.id q)
        [ 5; 17; 100 ])
    [ A.vax; A.sparc; A.sun3 ]

let interleave_src =
  {|
object Counter
  var n : int <- 0
  monitor operation bump[] -> [r : int]
    n <- n + 1
    r <- n
  end bump
end Counter

object Worker
  operation work[c : Counter, rounds : int] -> [r : int]
    var i : int <- 0
    var last : int <- 0
    loop
      exit when i >= rounds
      i <- i + 1
      last <- c.bump[]
    end loop
    r <- last
  end work
end Worker
|}

let test_preemptive_interleaving_safe () =
  (* tiny quantum: threads are preempted constantly, including inside the
     monitor body between its bus stops; mutual exclusion must hold *)
  let cl = Core.Cluster.create ~quantum:7 ~archs:[ A.sparc ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"pre" interleave_src);
  let c = Core.Cluster.create_object cl ~node:0 ~class_name:"Counter" in
  let tids =
    List.init 3 (fun _ ->
        let w = Core.Cluster.create_object cl ~node:0 ~class_name:"Worker" in
        Core.Cluster.spawn cl ~node:0 ~target:w ~op:"work"
          ~args:[ V.Vref c; V.Vint 20l ])
  in
  Core.Cluster.run cl;
  let finals =
    List.map
      (fun t ->
        match Core.Cluster.result cl t with
        | Some (Some (V.Vint v)) -> Int32.to_int v
        | _ -> Alcotest.fail "worker did not finish")
      tids
  in
  check Alcotest.int "60 bumps, each exactly once" 60 (List.fold_left max 0 finals)

let migrate_src =
  {|
object Agent
  operation go[] -> [r : int]
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= 40
      i <- i + 1
      acc <- acc + i * i
    end loop
    move self to 1
    loop
      exit when i >= 80
      i <- i + 1
      acc <- acc + i
    end loop
    r <- acc * 10 + thisnode
  end go
end Agent
|}

let pair_name archs = String.concat "<->" (List.map (fun a -> a.A.id) archs)

let test_migration_under_preemption () =
  (* a second thread keeps the node busy so the agent is routinely parked
     mid-computation when its quantum expires; migration must still see
     well-defined states *)
  let expected =
    let acc = ref 0 in
    for i = 1 to 40 do
      acc := !acc + (i * i)
    done;
    for i = 41 to 80 do
      acc := !acc + i
    done;
    (!acc * 10) + 1
  in
  List.iter
    (fun pair ->
      let cl = Core.Cluster.create ~quantum:9 ~archs:pair () in
      ignore (Core.Cluster.compile_and_load cl ~name:"pre" migrate_src);
      let a1 = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
      let a2 = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
      let t1 = Core.Cluster.spawn cl ~node:0 ~target:a1 ~op:"go" ~args:[] in
      let t2 = Core.Cluster.spawn cl ~node:0 ~target:a2 ~op:"go" ~args:[] in
      Core.Cluster.run cl;
      List.iter
        (fun t ->
          match Core.Cluster.result cl t with
          | Some (Some (V.Vint v)) ->
            check Alcotest.int (pair_name pair) expected (Int32.to_int v)
          | _ -> Alcotest.fail "agent did not finish")
        [ t1; t2 ])
    [ [ A.sparc; A.vax ]; [ A.sun3; A.sparc ]; [ A.hp9000_433; A.sun3 ] ]

let test_advance_to_stop_direct () =
  (* drive the kernel by hand: preempt mid-arithmetic, check the PC is not
     a stop, advance, check it is *)
  let arch = A.vax in
  let prog = Emc.Compile.compile_exn ~name:"adv" ~archs:[ arch ] compute_src in
  let k = Ert.Kernel.create ~node_id:0 ~arch () in
  Ert.Kernel.load_program k prog;
  Ert.Kernel.set_quantum k (Some 3);
  let cc = Option.get (Emc.Compile.find_class prog "Main") in
  let addr = Ert.Kernel.create_object k ~class_index:cc.Emc.Compile.cc_index in
  let _tid = Ert.Kernel.spawn_root k ~target_addr:addr ~method_name:"start" ~args:[] in
  (* find a moment where the (only) segment is parked between stops *)
  let rec hunt n =
    if n > 3000 then Alcotest.fail "never saw a mid-flight preemption";
    ignore (Ert.Kernel.step k);
    match Ert.Kernel.segments k with
    | [ seg ] when not (Ert.Kernel.at_stop k seg) -> seg
    | _ -> hunt (n + 1)
  in
  let seg = hunt 0 in
  let outs = Ert.Kernel.advance_to_stop k seg in
  check Alcotest.int "no cross-node actions" 0 (List.length outs);
  if not (Ert.Kernel.at_stop k seg) then
    Alcotest.fail "advance_to_stop must land on a bus stop"

let suites =
  [
    ( "preemption",
      [
        Alcotest.test_case "results agree across disciplines" `Quick
          test_same_results_under_quantum;
        Alcotest.test_case "monitors safe under preemption" `Quick
          test_preemptive_interleaving_safe;
        Alcotest.test_case "migration under preemption" `Quick
          test_migration_under_preemption;
        Alcotest.test_case "advance_to_stop lands on a stop" `Quick
          test_advance_to_stop_direct;
      ] );
  ]
