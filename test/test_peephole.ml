(* The between-bus-stops peephole pass: code must get smaller, semantics
   and the bus-stop discipline must be untouched — including under
   migration. *)

module A = Isa.Arch
module V = Ert.Value

let check = Alcotest.check

let src =
  {|
object Helper
  var bias : int <- 1
  operation scale[x : int] -> [r : int]
    r <- x * 2 + bias
  end scale
end Helper

object Main
  operation start[] -> [r : int]
    var h : Helper <- new Helper
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= 30
      i <- i + 1
      acc <- acc + h.scale[i]
    end loop
    r <- acc
  end start
end Main
|}

let static_cycles arch p =
  Array.fold_left
    (fun acc (cc : Emc.Compile.compiled_class) ->
      let code = (Emc.Compile.artifact cc ~arch_id:arch.A.id).Emc.Compile.aa_code in
      Array.fold_left
        (fun acc insn -> acc + Isa.Insn.cycles arch.A.family insn)
        acc code.Isa.Code.insns)
    0 p.Emc.Compile.p_classes

let test_code_shrinks () =
  let plain = Emc.Compile.compile_exn ~name:"po" ~archs:A.all src in
  let opt = Emc.Compile.compile_exn ~levels:[ Emc.Opt.O1 ] ~name:"po" ~archs:A.all src in
  List.iter
    (fun arch ->
      (* rewrites turn memory accesses into register moves, so the static
         cycle cost must drop everywhere; bytes shrink too on the
         variable-length encodings (SPARC words are fixed at 4 bytes) *)
      let before = static_cycles arch plain and after = static_cycles arch opt in
      if after >= before then
        Alcotest.failf "%s: peephole should cheapen code (%d -> %d cycles)" arch.A.id
          before after)
    A.all;
  let size arch p =
    Array.fold_left
      (fun acc (cc : Emc.Compile.compiled_class) ->
        acc
        + (Emc.Compile.artifact cc ~arch_id:arch.A.id).Emc.Compile.aa_code
            .Isa.Code.byte_size)
      0 p.Emc.Compile.p_classes
  in
  List.iter
    (fun arch ->
      if size arch opt >= size arch plain then
        Alcotest.failf "%s: variable-length code should shrink" arch.A.id)
    [ A.vax; A.sun3 ]

let test_optimized_code_validates () =
  let opt = Emc.Compile.compile_exn ~levels:[ Emc.Opt.O1 ] ~name:"po" ~archs:A.all src in
  Array.iter
    (fun (cc : Emc.Compile.compiled_class) ->
      List.iter
        (fun (_, (art : Emc.Compile.arch_artifact)) ->
          Isa.Isa_validate.check_exn art.Emc.Compile.aa_code)
        cc.Emc.Compile.cc_arts)
    opt.Emc.Compile.p_classes

let test_stop_tables_still_isomorphic () =
  let opt = Emc.Compile.compile_exn ~levels:[ Emc.Opt.O1 ] ~name:"po" ~archs:A.all src in
  Array.iter
    (fun (cc : Emc.Compile.compiled_class) ->
      let counts =
        List.map
          (fun (_, art) -> Emc.Busstop.count art.Emc.Compile.aa_stops)
          cc.Emc.Compile.cc_arts
      in
      match counts with
      | c :: rest -> List.iter (fun c' -> check Alcotest.int "stop count" c c') rest
      | [] -> ())
    opt.Emc.Compile.p_classes

let run_cluster ~level archs program_src =
  let cl = Core.Cluster.create ~archs () in
  ignore (Core.Cluster.compile_and_load ~levels:[ level ] cl ~name:"po" program_src);
  let main = Core.Cluster.create_object cl ~node:0 ~class_name:"Main" in
  let tid = Core.Cluster.spawn cl ~node:0 ~target:main ~op:"start" ~args:[] in
  Core.Cluster.run_until_result cl tid

let test_same_results () =
  List.iter
    (fun arch ->
      let a = run_cluster ~level:Emc.Opt.O0 [ arch ] src in
      let b = run_cluster ~level:Emc.Opt.O1 [ arch ] src in
      if a <> b then Alcotest.failf "%s: optimization changed the result" arch.A.id)
    A.all

let migration_src =
  {|
object Agent
  operation go[] -> [r : int]
    var a : int <- 11
    var b : int <- 31
    move self to 1
    var c : int <- a * b
    move self to 0
    r <- c + thisnode
  end go
end Agent

object Main
  operation start[] -> [r : int]
    var ag : Agent <- new Agent
    r <- ag.go[]
  end start
end Main
|}

let test_migration_under_optimization () =
  (* both instances run identically optimized code (the prototype's rule,
     section 3): heterogeneous migration must keep working *)
  List.iter
    (fun pair ->
      match run_cluster ~level:Emc.Opt.O1 pair migration_src with
      | Some (V.Vint v) -> check Alcotest.int "result" 341 (Int32.to_int v)
      | _ -> Alcotest.fail "no result")
    [ [ A.sparc; A.vax ]; [ A.sun3; A.hp9000_433 ]; [ A.vax; A.sparc ] ]

(* bench ablation's -O1 configuration: the measured node runs the O1
   instance, and the intra-node loop's virtual time is pinned per
   architecture (the -O0 times are 132.85, 43.15, 20.91, 27.61 and
   14.71 ms) *)
let test_ablation_runs_o1 () =
  let levels = [ Emc.Opt.O1 ] in
  List.iter
    (fun (arch, us) ->
      let cl = Core.Cluster.create ~archs:[ A.sparc; arch ] () in
      let prog =
        Core.Cluster.compile_and_load ~levels cl ~name:"intranode" Core.Workloads.intranode_src
      in
      let cc = Option.get (Emc.Compile.find_class prog "Agent") in
      let lc = Ert.Kernel.loaded_class (Core.Cluster.kernel cl 1) cc.Emc.Compile.cc_index in
      check Alcotest.int (arch.A.id ^ " loads the O1 instance") (Emc.Opt.to_int Emc.Opt.O1)
        lc.Ert.Kernel.lc_code.Isa.Code.code_inst;
      let r = Core.Workloads.measure_intranode ~levels ~arch ~migrated:false ~n:2000 () in
      check (Alcotest.float 0.0) (arch.A.id ^ " -O1 virtual us") us
        r.Core.Workloads.in_virtual_us)
    [ (A.vax, 130451.0); (A.sun3, 42403.0); (A.hp9000_433, 20550.0);
      (A.hp9000_385, 27131.0); (A.sparc, 14413.0) ]

let suites =
  [
    ( "peephole",
      [
        Alcotest.test_case "code shrinks on every architecture" `Quick test_code_shrinks;
        Alcotest.test_case "optimized code validates" `Quick test_optimized_code_validates;
        Alcotest.test_case "stop tables stay isomorphic" `Quick
          test_stop_tables_still_isomorphic;
        Alcotest.test_case "results unchanged" `Quick test_same_results;
        Alcotest.test_case "migration still works" `Quick test_migration_under_optimization;
        Alcotest.test_case "ablation -O1 runs the O1 instance" `Quick test_ablation_runs_o1;
      ] );
  ]
