(* Tests for the virtual-architecture layer: byte orders, float formats,
   memory, code objects and the machine interpreter. *)

module A = Isa.Arch
module I = Isa.Insn
module O = Isa.Operand

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Endianness ------------------------------------------------------------ *)

let test_endian_roundtrip =
  QCheck.Test.make ~name:"int32 byte round trip, both orders" ~count:500
    QCheck.int32 (fun v ->
      List.for_all
        (fun e ->
          let b0, b1, b2, b3 = Isa.Endian.bytes_of_int32 e v in
          Int32.equal (Isa.Endian.int32_of_bytes e b0 b1 b2 b3) v)
        [ Isa.Endian.Little; Isa.Endian.Big ])

let test_endian_disagree () =
  let v = 0x01020304l in
  let quad (a, b, c, d) = [ a; b; c; d ] in
  let l = Isa.Endian.bytes_of_int32 Isa.Endian.Little v in
  let b = Isa.Endian.bytes_of_int32 Isa.Endian.Big v in
  check (Alcotest.list Alcotest.int) "little endian order" [ 0x04; 0x03; 0x02; 0x01 ]
    (quad l);
  check (Alcotest.list Alcotest.int) "big endian order" [ 0x01; 0x02; 0x03; 0x04 ] (quad b)

let test_endian16 () =
  let lo, hi = Isa.Endian.bytes_of_int16 Isa.Endian.Little 0xBEEF in
  check Alcotest.int "lo" 0xEF lo;
  check Alcotest.int "hi" 0xBE hi;
  check Alcotest.int "roundtrip" 0xBEEF (Isa.Endian.int16_of_bytes Isa.Endian.Little lo hi)

(* Float formats ---------------------------------------------------------- *)

let representable_float =
  (* single-precision representable, within VAX F range *)
  QCheck.map
    (fun (m, e) -> Float.ldexp (Float.of_int m /. 65536.0) e)
    (QCheck.pair (QCheck.int_range (-65535) 65535) (QCheck.int_range (-100) 100))

let test_float_roundtrip fmt name =
  QCheck.Test.make ~name ~count:500 representable_float (fun x ->
      let y = Isa.Float_format.decode fmt (Isa.Float_format.encode fmt x) in
      Float.abs (y -. x) <= Float.abs x *. 1e-6)

let test_float_cross =
  QCheck.Test.make ~name:"VAX F and IEEE agree through conversion" ~count:500
    representable_float (fun x ->
      let vax = Isa.Float_format.encode Isa.Float_format.Vax_f x in
      let ieee =
        Isa.Float_format.convert ~from:Isa.Float_format.Vax_f
          ~to_:Isa.Float_format.Ieee_single vax
      in
      let y = Isa.Float_format.decode Isa.Float_format.Ieee_single ieee in
      Float.abs (y -. x) <= Float.abs x *. 1e-6)

let test_float_formats_differ () =
  (* the same value must have different register images: the data really is
     machine dependent *)
  let x = 1.5 in
  let v = Isa.Float_format.encode Isa.Float_format.Vax_f x in
  let i = Isa.Float_format.encode Isa.Float_format.Ieee_single x in
  if Int32.equal v i then Alcotest.fail "VAX F and IEEE images should differ"

let test_vax_no_nan () =
  (try
     ignore (Isa.Float_format.encode Isa.Float_format.Vax_f Float.nan);
     Alcotest.fail "NaN must be rejected"
   with Isa.Float_format.Reserved_operand _ -> ());
  try
    ignore (Isa.Float_format.encode Isa.Float_format.Vax_f Float.infinity);
    Alcotest.fail "infinity must be rejected"
  with Isa.Float_format.Reserved_operand _ -> ()

let test_vax_reserved_operand () =
  (* sign bit set, exponent zero *)
  try
    ignore (Isa.Float_format.decode Isa.Float_format.Vax_f 0x8000l);
    Alcotest.fail "reserved operand must be rejected"
  with Isa.Float_format.Reserved_operand _ -> ()

let test_vax_zero () =
  check (Alcotest.float 0.0) "zero encodes to 0" 0.0
    (Isa.Float_format.decode Isa.Float_format.Vax_f
       (Isa.Float_format.encode Isa.Float_format.Vax_f 0.0))

(* Memory ------------------------------------------------------------------ *)

let test_memory_endianness () =
  let little = Isa.Memory.create ~endian:Isa.Endian.Little ~size:0x1000 in
  let big = Isa.Memory.create ~endian:Isa.Endian.Big ~size:0x1000 in
  Isa.Memory.store32 little 0x200 0xAABBCCDDl;
  Isa.Memory.store32 big 0x200 0xAABBCCDDl;
  check Alcotest.int "little low byte" 0xDD (Isa.Memory.load8 little 0x200);
  check Alcotest.int "big low byte" 0xAA (Isa.Memory.load8 big 0x200);
  check Alcotest.int "little load32" 0
    (Int32.compare (Isa.Memory.load32 little 0x200) 0xAABBCCDDl);
  check Alcotest.int "big load32" 0
    (Int32.compare (Isa.Memory.load32 big 0x200) 0xAABBCCDDl)

let test_memory_fault () =
  let mem = Isa.Memory.create ~endian:Isa.Endian.Big ~size:0x1000 in
  (try
     ignore (Isa.Memory.load32 mem 0);
     Alcotest.fail "nil access must fault"
   with Isa.Memory.Fault 0 -> ());
  try
    Isa.Memory.store32 mem 0x10000 1l;
    Alcotest.fail "out of range must fault"
  with Isa.Memory.Fault _ -> ()

let test_memory_grow () =
  let mem = Isa.Memory.create ~endian:Isa.Endian.Big ~size:0x1000 in
  Isa.Memory.grow_to mem 0x4000;
  Isa.Memory.store32 mem 0x3000 42l;
  check Alcotest.int "grown access" 0 (Int32.compare (Isa.Memory.load32 mem 0x3000) 42l)

let test_memory_blit () =
  let mem = Isa.Memory.create ~endian:Isa.Endian.Big ~size:0x1000 in
  Isa.Memory.blit_string mem 0x200 "hello world";
  check Alcotest.string "read back" "hello world" (Isa.Memory.read_string mem 0x200 11);
  Isa.Memory.blit_within mem ~src:0x200 ~dst:0x204 ~len:11;
  check Alcotest.string "overlapping copy" "hellhello w"
    (Isa.Memory.read_string mem 0x200 11)

(* Instruction encodings --------------------------------------------------- *)

let test_insn_sizes () =
  let mov_rr = I.Mov (O.Reg 1, O.Reg 2) in
  let mov_imm = I.Mov (O.Imm 100000l, O.Reg 2) in
  check Alcotest.int "sparc fixed width" 4 (I.size_bytes A.Sparc mov_rr);
  check Alcotest.int "sparc fixed width imm" 4 (I.size_bytes A.Sparc mov_imm);
  check Alcotest.int "vax reg-reg" 3 (I.size_bytes A.Vax mov_rr);
  check Alcotest.int "vax long literal" 7 (I.size_bytes A.Vax mov_imm);
  check Alcotest.int "m68k reg-reg" 2 (I.size_bytes A.M68k mov_rr);
  check Alcotest.int "m68k immediate" 6 (I.size_bytes A.M68k mov_imm);
  (* the same program point lands on different PCs *)
  if
    I.size_bytes A.Vax mov_imm = I.size_bytes A.M68k mov_imm
    && I.size_bytes A.M68k mov_imm = I.size_bytes A.Sparc mov_imm
  then Alcotest.fail "families should have different encodings"

(* A hand-assembled function on each architecture --------------------------- *)

(* Build a tiny code object that computes (a + b) * 2 of two values placed
   in registers 1 and 2 by the harness, leaves the result in register 3 and
   halts.  Exercises the interpreter's arithmetic on each family. *)
let hand_code arch =
  let insns =
    match arch.A.family with
    | A.Vax ->
      [|
        I.Bin3 (I.Add, O.Reg 1, O.Reg 2, O.Reg 3);
        I.Bin3 (I.Mul, O.Reg 3, O.Imm 2l, O.Reg 3);
        I.Halt;
      |]
    | A.M68k ->
      [|
        I.Mov (O.Reg 1, O.Reg 3);
        I.Bin2 (I.Add, O.Reg 2, O.Reg 3);
        I.Bin2 (I.Mul, O.Imm 2l, O.Reg 3);
        I.Halt;
      |]
    | A.Sparc ->
      [|
        I.Bin3 (I.Add, O.Reg 1, O.Reg 2, O.Reg 3);
        I.Bin3 (I.Mul, O.Reg 3, O.Imm 2l, O.Reg 3);
        I.Halt;
      |]
  in
  Isa.Code.make ~arch ~code_oid:99l ~class_name:"hand" ~methods:[| ("run", 0) |] insns

let test_machine_arith () =
  List.iter
    (fun arch ->
      let code = hand_code arch in
      Isa.Isa_validate.check_exn code;
      let mem = Isa.Memory.create ~endian:arch.A.endian ~size:0x1000 in
      let text = Isa.Text.create () in
      let img = Isa.Text.load text code in
      let ctx = Isa.Machine.create_ctx arch in
      ctx.Isa.Machine.pc <- img.Isa.Text.base;
      Isa.Machine.set_reg ctx 1 20l;
      Isa.Machine.set_reg ctx 2 1l;
      let stop = Isa.Machine.run ctx ~mem ~text ~fuel:100 in
      (match stop with
      | Isa.Machine.Halt -> ()
      | other -> Alcotest.failf "%s: unexpected stop %a" arch.A.id Isa.Machine.pp_stop other);
      check Alcotest.int
        (arch.A.id ^ " result")
        42
        (Int32.to_int (Isa.Machine.reg ctx 3)))
    A.all

let test_machine_div_zero () =
  let arch = A.sparc in
  let insns = [| I.Bin3 (I.Div, O.Reg 1, O.Reg 2, O.Reg 3); I.Halt |] in
  let code = Isa.Code.make ~arch ~code_oid:98l ~class_name:"div" ~methods:[||] insns in
  let mem = Isa.Memory.create ~endian:arch.A.endian ~size:0x1000 in
  let text = Isa.Text.create () in
  let img = Isa.Text.load text code in
  let ctx = Isa.Machine.create_ctx arch in
  ctx.Isa.Machine.pc <- img.Isa.Text.base;
  Isa.Machine.set_reg ctx 1 7l;
  match Isa.Machine.run ctx ~mem ~text ~fuel:10 with
  | Isa.Machine.Trap Isa.Machine.Div_zero -> ()
  | other -> Alcotest.failf "expected div-zero trap, got %a" Isa.Machine.pp_stop other

let test_machine_remque () =
  (* build a two-element queue in memory and unlink the first atomically *)
  let arch = A.vax in
  let insns = [| I.Remque (1, 2); I.Remque (1, 3); I.Remque (1, 4); I.Halt |] in
  let code = Isa.Code.make ~arch ~code_oid:97l ~class_name:"remq" ~methods:[||] insns in
  let mem = Isa.Memory.create ~endian:arch.A.endian ~size:0x1000 in
  let sent = 0x200 and n1 = 0x300 and n2 = 0x400 in
  (* circular doubly linked list: sent -> n1 -> n2 -> sent *)
  Isa.Memory.store32 mem sent (Int32.of_int n1);
  Isa.Memory.store32 mem (sent + 4) (Int32.of_int n2);
  Isa.Memory.store32 mem n1 (Int32.of_int n2);
  Isa.Memory.store32 mem (n1 + 4) (Int32.of_int sent);
  Isa.Memory.store32 mem n2 (Int32.of_int sent);
  Isa.Memory.store32 mem (n2 + 4) (Int32.of_int n1);
  let text = Isa.Text.create () in
  let img = Isa.Text.load text code in
  let ctx = Isa.Machine.create_ctx arch in
  ctx.Isa.Machine.pc <- img.Isa.Text.base;
  Isa.Machine.set_reg ctx 1 (Int32.of_int sent);
  (match Isa.Machine.run ctx ~mem ~text ~fuel:10 with
  | Isa.Machine.Halt -> ()
  | other -> Alcotest.failf "unexpected stop %a" Isa.Machine.pp_stop other);
  check Alcotest.int "first dequeue" n1 (Int32.to_int (Isa.Machine.reg ctx 2));
  check Alcotest.int "second dequeue" n2 (Int32.to_int (Isa.Machine.reg ctx 3));
  check Alcotest.int "empty queue yields 0" 0 (Int32.to_int (Isa.Machine.reg ctx 4))

let test_machine_poll () =
  let arch = A.sparc in
  let insns = [| I.Poll 0; I.Br 0 |] in
  let code = Isa.Code.make ~arch ~code_oid:96l ~class_name:"poll" ~methods:[||] insns in
  let mem = Isa.Memory.create ~endian:arch.A.endian ~size:0x1000 in
  let text = Isa.Text.create () in
  let img = Isa.Text.load text code in
  let ctx = Isa.Machine.create_ctx arch in
  ctx.Isa.Machine.pc <- img.Isa.Text.base;
  (* without a request the loop spins until fuel runs out *)
  (match Isa.Machine.run ctx ~mem ~text ~fuel:50 with
  | Isa.Machine.Fuel -> ()
  | other -> Alcotest.failf "expected fuel stop, got %a" Isa.Machine.pp_stop other);
  ctx.Isa.Machine.poll_requested <- true;
  (match Isa.Machine.run ctx ~mem ~text ~fuel:50 with
  | Isa.Machine.Poll -> ()
  | other -> Alcotest.failf "expected poll stop, got %a" Isa.Machine.pp_stop other);
  check Alcotest.int "pc parked at the poll" img.Isa.Text.base ctx.Isa.Machine.pc

let test_validator_families () =
  let remque = [| I.Remque (1, 2) |] in
  let bin3_mem = [| I.Bin3 (I.Add, O.Mem (O.Disp (1, 4)), O.Reg 2, O.Reg 3) |] in
  let check_bad arch insns name =
    let code = Isa.Code.make ~arch ~code_oid:94l ~class_name:name ~methods:[||] insns in
    match Isa.Isa_validate.check code with
    | [] -> Alcotest.failf "validator accepted %s on %s" name arch.A.id
    | _ :: _ -> ()
  in
  let check_good arch insns name =
    let code = Isa.Code.make ~arch ~code_oid:93l ~class_name:name ~methods:[||] insns in
    Isa.Isa_validate.check_exn code
  in
  check_good A.vax remque "remque";
  check_bad A.sparc remque "remque";
  check_bad A.sun3 remque "remque";
  check_good A.vax bin3_mem "bin3-mem";
  check_bad A.sparc bin3_mem "bin3-mem";
  check_bad A.sun3 bin3_mem "bin3-mem";
  check_bad A.sparc [| I.Mov (O.Imm 100000l, O.Reg 1) |] "big-imm";
  check_good A.sparc [| I.Sethi (97l, 1) |] "sethi";
  check_bad A.vax [| I.Sethi (97l, 1) |] "sethi";
  check_bad A.sparc [| I.Mov (O.Mem (O.Disp (1, 0)), O.Mem (O.Disp (2, 0))) |] "mem-mem";
  check_good A.sun3 [| I.Mov (O.Mem (O.Disp (14, 0)), O.Mem (O.Disp (14, 4))) |] "mem-mem"

let suites =
  [
    ( "isa.endian",
      [
        qcheck test_endian_roundtrip;
        Alcotest.test_case "byte orders disagree" `Quick test_endian_disagree;
        Alcotest.test_case "16-bit" `Quick test_endian16;
      ] );
    ( "isa.float",
      [
        qcheck (test_float_roundtrip Isa.Float_format.Vax_f "VAX F round trip");
        qcheck (test_float_roundtrip Isa.Float_format.Ieee_single "IEEE round trip");
        qcheck test_float_cross;
        Alcotest.test_case "formats differ" `Quick test_float_formats_differ;
        Alcotest.test_case "VAX rejects NaN/inf" `Quick test_vax_no_nan;
        Alcotest.test_case "VAX reserved operand" `Quick test_vax_reserved_operand;
        Alcotest.test_case "VAX zero" `Quick test_vax_zero;
      ] );
    ( "isa.memory",
      [
        Alcotest.test_case "endianness visible in bytes" `Quick test_memory_endianness;
        Alcotest.test_case "faults" `Quick test_memory_fault;
        Alcotest.test_case "grow" `Quick test_memory_grow;
        Alcotest.test_case "blit" `Quick test_memory_blit;
      ] );
    ( "isa.machine",
      [
        Alcotest.test_case "encodings differ by family" `Quick test_insn_sizes;
        Alcotest.test_case "arithmetic on all machines" `Quick test_machine_arith;
        Alcotest.test_case "division by zero traps" `Quick test_machine_div_zero;
        Alcotest.test_case "VAX REMQUE" `Quick test_machine_remque;
        Alcotest.test_case "loop poll" `Quick test_machine_poll;
        Alcotest.test_case "family subset validation" `Quick test_validator_families;
      ] );
  ]
