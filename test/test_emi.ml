(* The thread-state specialization hierarchy (Figure 2): the same program
   must compute the same results at the source-interpretation,
   IR-interpretation and native-execution levels. *)

module A = Isa.Arch
module MV = Emi.Mvalue

let check = Alcotest.check

let src =
  {|
object Helper
  var bias : int <- 3
  operation scale[x : int] -> [r : int]
    r <- x * 2 + bias
  end scale
end Helper

object Main
  operation start[n : int] -> [r : int]
    var h : Helper <- new Helper
    var i : int <- 0
    var acc : int <- 0
    var label : string <- "acc"
    loop
      exit when i >= n
      i <- i + 1
      acc <- acc + h.scale[i]
    end loop
    if label == "acc" then
      print[label, "=", acc]
    end if
    r <- acc
  end start
end Main
|}

let expected n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + (i * 2) + 3
  done;
  !acc

let run_source n =
  let ast = Emc.Parser.parse_program src in
  let tprog = Emc.Typecheck.check ast in
  Emi.Ast_interp.run tprog ~class_name:"Main" ~op:"start" ~args:[ MV.Int (Int32.of_int n) ]

let run_ir n =
  let ast = Emc.Parser.parse_program src in
  let tprog = Emc.Typecheck.check ast in
  let ir = Emc.Lower.lower_program ~formats:[] ~name:"emi" tprog in
  Emi.Ir_interp.run ir ~class_name:"Main" ~op:"start" ~args:[ MV.Int (Int32.of_int n) ]

let run_native arch n =
  let prog = Emc.Compile.compile_exn ~name:"emi" ~archs:[ arch ] src in
  let k = Ert.Kernel.create ~node_id:0 ~arch () in
  Ert.Kernel.load_program k prog;
  let cc = Option.get (Emc.Compile.find_class prog "Main") in
  let addr = Ert.Kernel.create_object k ~class_index:cc.Emc.Compile.cc_index in
  let tid =
    Ert.Kernel.spawn_root k ~target_addr:addr ~method_name:"start"
      ~args:[ Ert.Value.Vint (Int32.of_int n) ]
  in
  let rec loop i =
    if i > 500000 then Alcotest.fail "native run diverged";
    match Ert.Kernel.root_result k tid with
    | Some (Some (Ert.Value.Vint v)) -> (Int32.to_int v, Ert.Kernel.output k)
    | Some _ -> Alcotest.fail "bad result"
    | None ->
      ignore (Ert.Kernel.step k);
      loop (i + 1)
  in
  loop 0

let test_three_levels_agree () =
  let n = 25 in
  let want = expected n in
  let r_src = run_source n in
  let r_ir = run_ir n in
  (match r_src.Emi.Ast_interp.value with
  | Some (MV.Int v) -> check Alcotest.int "source value" want (Int32.to_int v)
  | _ -> Alcotest.fail "source: no int result");
  (match r_ir.Emi.Ir_interp.value with
  | Some (MV.Int v) -> check Alcotest.int "IR value" want (Int32.to_int v)
  | _ -> Alcotest.fail "IR: no int result");
  check Alcotest.string "source/IR output agree" r_src.Emi.Ast_interp.output
    r_ir.Emi.Ir_interp.output;
  List.iter
    (fun arch ->
      let v, out = run_native arch n in
      check Alcotest.int (arch.A.id ^ " native value") want v;
      check Alcotest.string (arch.A.id ^ " native output") r_src.Emi.Ast_interp.output out)
    A.all

let test_step_counts_sane () =
  let r_src = run_source 50 in
  let r_ir = run_ir 50 in
  if r_src.Emi.Ast_interp.steps <= 0 || r_ir.Emi.Ir_interp.steps <= 0 then
    Alcotest.fail "interpreters must report work"

let test_fib_levels () =
  let fib_src = Core.Workloads.fig2_src in
  let ast = Emc.Parser.parse_program fib_src in
  let tprog = Emc.Typecheck.check ast in
  let ir = Emc.Lower.lower_program ~formats:[] ~name:"fib" tprog in
  let n = 12 in
  let a =
    Emi.Ast_interp.run tprog ~class_name:"Main" ~op:"start"
      ~args:[ MV.Int (Int32.of_int n) ]
  in
  let b =
    Emi.Ir_interp.run ir ~class_name:"Main" ~op:"start" ~args:[ MV.Int (Int32.of_int n) ]
  in
  match a.Emi.Ast_interp.value, b.Emi.Ir_interp.value with
  | Some (MV.Int x), Some (MV.Int y) ->
    check Alcotest.int "fib agree" (Int32.to_int x) (Int32.to_int y);
    check Alcotest.int "fib(12)" 144 (Int32.to_int x)
  | _ -> Alcotest.fail "fib: missing results"

let suites =
  [
    ( "emi",
      [
        Alcotest.test_case "three levels agree" `Quick test_three_levels_agree;
        Alcotest.test_case "step counts" `Quick test_step_counts_sane;
        Alcotest.test_case "fib at the MI levels" `Quick test_fib_levels;
      ] );
  ]
