(* Differential dispatch: the pre-decoded dispatch engine against the
   fetch/decode interpreter on random programs.

   For each family a random program is drawn over every instruction and
   operand form [Isa_validate] accepts for it: moves, integer and float
   arithmetic, negations, conversions, compares, [Push], the frame
   instructions ([Link]/[Unlk], [Vax_entry]/[Vax_ret], [Save]/
   [Restore]), calls and returns ([Jsr_ind], [Rts], [Vax_ret], [Retl],
   [Jmp_abs]), system calls, [Remque], SPARC [sethi]s and no-ops, over
   register, immediate, frame-slot, absolute, autoincrement and
   autodecrement operands, with forward conditional branches and polls
   in mid-program, ending in a back-branch (plain, conditional, or
   behind a loop-bottom poll), a return, a jump or a halt.  The value
   pool holds the arithmetic edges (zero divisors, [min_int32 / -1],
   multiply overflow) and the float ones (zero, values whose product
   overflows, VAX reserved operands, IEEE infinities and NaNs); a second
   base register holds nil or an address outside memory so accesses
   trap mid-path; SPARC programs write %g0; the stack limit sits at or
   just below the stack pointer often enough for pushes, entries and
   window saves to overflow; return addresses on the stack and in the
   link register are instruction addresses or 0 (a return to 0 is a
   segment-bottom return, a jump to 0 traps); and each program starts
   under its own [poll_requested]/[skip_poll] setting.

   Both engines run each program from the same state at every fuel value
   1..n+1 (n: the instructions the reference executes before it stops or
   reaches a cap), and again in equal slices through one warm
   translation cache, so every translated path is entered whole, cut
   short by fuel, resumed mid-path, left by a side exit and trapped
   mid-path.  The outcome (a stop, or the exception both raise), PC,
   condition codes, pending poll skip, cycle and instruction counters,
   every register and every memory byte must agree. *)

module A = Isa.Arch
module I = Isa.Insn
module O = Isa.Operand
module M = Isa.Machine
module Mem = Isa.Memory

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

type prog = {
  arch : A.t;
  insns : I.t array;
  regs : (int * int32) list;  (* initial register values *)
  words : (int * int32) list;  (* initial memory words *)
  poll_requested : bool;
  skip_poll : bool;
  stack_limit : int;
}

let mem_size = 0x1000
let frame = 0x800
let queue = 0x900  (* the absolute, autoincrement and queue operands' area *)
let stack = 0xC00  (* the stack pointer at start; returns pop from here *)

(* value registers, the frame base (a valid address at start), a second
   base holding nil or an address outside memory, the pointer the
   autoincrement, autodecrement and queue operands use, the register
   [Jsr_ind] calls through, and the stack pointer *)
type layout = {
  data : int list;
  fp : int;
  bad : int;
  ptr : int;
  lnk : int;
  sp : int;
}

let layout = function
  | A.Vax -> { data = [ 0; 1; 2; 3; 4; 5 ]; fp = 13; bad = 12; ptr = 11; lnk = 10; sp = 14 }
  | A.M68k -> { data = [ 0; 1; 2; 3; 8; 9 ]; fp = 14; bad = 13; ptr = 12; lnk = 10; sp = 15 }
  | A.Sparc ->
    (* 0 is %g0; the window registers shift under save and restore *)
    { data = [ 0; 1; 8; 9; 16; 17; 24 ]; fp = 30; bad = 29; ptr = 3; lnk = 2; sp = 14 }

let edge_values =
  [ 0l; 1l; -1l; 2l; 3l; -8l; 46341l; 0x10000l; Int32.min_int; Int32.max_int ]

(* float images: zero (a divisor), ordinary values, two whose product
   overflows the VAX F range, a tiny one, and the format's specials *)
let float_values (fmt : Isa.Float_format.t) =
  List.map (Isa.Float_format.encode fmt) [ 0.0; 1.0; -2.5; 7.0; 1e38; -1e38; 1e-30 ]
  @
  match fmt with
  | Isa.Float_format.Vax_f -> [ 0x8000l (* reserved operand: sign set, exponent 0 *) ]
  | Isa.Float_format.Ieee_single -> [ 0x7F80_0000l; 0xFF80_0000l; 0x7FC0_0000l ]

let bad_bases = [ 0l; 0x40l; 0x7FFF_0000l; -16l; Int32.of_int (mem_size - 2) ]

(* a word placed before the code's addresses are known: a number, or
   the address of instruction k *)
type word =
  | Num of int32
  | Code_at of int

(* [Jmp_abs] targets before resolution: an instruction index, or these *)
let jump_to_zero = -1
let jump_outside = -2

let gen_prog =
  let open QCheck.Gen in
  oneofl A.all >>= fun arch ->
  let family = arch.A.family in
  let l = layout family in
  let fmt = arch.A.float_format in
  let value =
    frequency
      [
        (3, oneofl edge_values);
        (2, map Int32.of_int (int_range (-100) 100));
        (2, oneofl (float_values fmt));
        (* nothing random lands in the text map, so only the
           generator's own code addresses do *)
        ( 1,
          map
            (fun v -> if Int32.shift_right_logical v 16 = 0x4000l then 0x40l else v)
            ui32 );
      ]
  in
  let imm =
    match family with
    | A.Sparc ->
      map Int32.of_int
        (frequency [ (1, oneofl [ 0; 1; -1; 4095; -4096 ]); (2, int_range (-4096) 4095) ])
    | A.Vax | A.M68k -> value
  in
  let reg = map (fun r -> O.Reg r) (oneofl l.data) in
  (* bases are rarely clobbered, so later slot accesses fault *)
  let dst_reg =
    map (fun r -> O.Reg r) (frequency [ (12, oneofl l.data); (1, oneofl [ l.fp; l.bad ]) ])
  in
  let slot =
    frequency
      [
        (6, map (fun k -> O.Mem (O.Disp (l.fp, 4 * k))) (int_range (-8) 7));
        (1, map (fun k -> O.Mem (O.Disp (l.bad, 4 * k))) (int_range (-8) 7));
      ]
  in
  let reg_or_imm = frequency [ (3, reg); (1, map (fun i -> O.Imm i) imm) ] in
  let binop = oneofl I.[ Add; Sub; Mul; Div; Mod; And; Or; Xor ] in
  (* the non-arithmetic ones trap as illegal float instructions *)
  let fbinop =
    frequency [ (8, oneofl I.[ Add; Sub; Mul; Div ]); (1, oneofl I.[ Mod; And; Or; Xor ]) ]
  in
  let cond = oneofl I.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  (* VAX and M68k memory operands beyond the frame slot *)
  let other_mem =
    frequency
      [
        ( 2,
          map
            (fun a -> O.Mem (O.Abs (Int32.of_int a)))
            (frequency
               [ (8, map (fun k -> queue + (4 * k)) (int_range 0 15)); (1, oneofl [ 0; 0x7FFF_0000 ]) ])
        );
        (1, map (fun r -> O.Mem (O.Autoinc r)) (oneofl [ l.ptr; l.sp ]));
        (1, map (fun r -> O.Mem (O.Autodec r)) (oneofl [ l.ptr; l.sp ]));
      ]
  in
  let src = frequency [ (4, reg); (2, map (fun i -> O.Imm i) imm); (2, slot); (1, other_mem) ] in
  let dst =
    frequency [ (16, dst_reg); (6, slot); (3, other_mem); (1, map (fun i -> O.Imm i) imm) ]
  in
  let mem_dst = frequency [ (3, slot); (1, other_mem) ] in
  let cmp_insn =
    match family with
    | A.Sparc -> map2 (fun a b -> I.Cmp (a, b)) reg reg_or_imm
    | A.Vax | A.M68k -> map2 (fun a b -> I.Cmp (a, b)) src src
  in
  let frame_size = oneofl [ 0; 8; 16; 64 ] in
  (* the control instructions every family has; [len] is the index of
     the first terminating instruction, so forward branches land at or
     before it *)
  let control i len =
    frequency
      [
        (3, map2 (fun c k -> I.Bcc (c, k)) cond (int_range (i + 1) len));
        (1, map (fun k -> I.Br k) (int_range (i + 1) len));
        (2, return (I.Poll 0));
        (1, map (fun n -> I.Syscall n) (int_range 0 40));
        (1, return (I.Jsr_ind l.lnk));
        ( 1,
          map
            (fun k -> I.Jmp_abs k)
            (frequency [ (3, int_range 0 len); (1, oneofl [ jump_to_zero; jump_outside ]) ]) );
        (1, return I.Halt);
      ]
  in
  let family_insn =
    match family with
    | A.Vax ->
      frequency
        [
          (6, map2 (fun a b -> I.Mov (a, b)) src dst);
          (6, map2 (fun op (a, b, c) -> I.Bin3 (op, a, b, c)) binop (triple src src dst));
          (2, map2 (fun op (a, b, c) -> I.Fbin3 (op, a, b, c)) fbinop (triple src src dst));
          (1, map2 (fun a b -> I.Neg (a, b)) src dst);
          (1, map2 (fun a b -> I.Fneg (a, b)) src dst);
          (1, map2 (fun a b -> I.Cvt_if (a, b)) src dst);
          (1, map2 (fun a b -> I.Cvt_fi (a, b)) src dst);
          (2, cmp_insn);
          (1, map2 (fun a b -> I.Fcmp (a, b)) src src);
          (2, map (fun a -> I.Push a) src);
          (1, map (fun n -> I.Vax_entry n) frame_size);
          (1, return I.Vax_ret);
          ( 1,
            map2
              (fun rs rd -> I.Remque (rs, rd))
              (frequency [ (3, return l.ptr); (1, oneofl l.data) ])
              (oneofl l.data) );
          (1, return I.Nop);
        ]
    | A.M68k ->
      (* two-operand arithmetic takes at most one memory operand *)
      let bin2_operands =
        frequency [ (3, pair src dst_reg); (1, pair reg_or_imm mem_dst) ]
      in
      frequency
        [
          (6, map2 (fun a b -> I.Mov (a, b)) src dst);
          (6, map2 (fun op (a, b) -> I.Bin2 (op, a, b)) binop bin2_operands);
          (2, map2 (fun op (a, b) -> I.Fbin2 (op, a, b)) fbinop bin2_operands);
          (1, map2 (fun a b -> I.Neg (a, b)) src dst);
          (1, map2 (fun a b -> I.Fneg (a, b)) src dst);
          (1, map2 (fun a b -> I.Cvt_if (a, b)) src dst);
          (1, map2 (fun a b -> I.Cvt_fi (a, b)) src dst);
          (2, cmp_insn);
          (1, map2 (fun a b -> I.Fcmp (a, b)) src src);
          (1, map (fun n -> I.Link n) frame_size);
          (1, return I.Unlk);
          (1, return I.Rts);
          (1, return I.Nop);
        ]
    | A.Sparc ->
      let mov =
        frequency
          [ (2, pair reg_or_imm dst_reg); (1, pair slot dst_reg); (1, pair reg slot) ]
      in
      (* the one-source forms take any short operand, an immediate
         destination included (it traps) *)
      let any = frequency [ (3, reg); (1, map (fun i -> O.Imm i) imm); (2, slot) ] in
      frequency
        [
          (6, map (fun (a, b) -> I.Mov (a, b)) mov);
          ( 6,
            map2 (fun op (a, b, c) -> I.Bin3 (op, a, b, c)) binop
              (triple reg reg_or_imm dst_reg) );
          ( 2,
            map2 (fun op (a, b, c) -> I.Fbin3 (op, a, b, c)) fbinop
              (triple reg_or_imm reg_or_imm dst_reg) );
          (1, map2 (fun a b -> I.Neg (a, b)) any any);
          (1, map2 (fun a b -> I.Fneg (a, b)) any any);
          (1, map2 (fun a b -> I.Cvt_if (a, b)) any any);
          (1, map2 (fun a b -> I.Cvt_fi (a, b)) any any);
          (2, cmp_insn);
          (1, map2 (fun a b -> I.Fcmp (a, b)) reg reg);
          (1, map (fun n -> I.Save n) frame_size);
          (1, return I.Restore);
          (1, return I.Retl);
          ( 1,
            map2
              (fun i r -> match r with O.Reg r -> I.Sethi (i, r) | _ -> I.Nop)
              (map Int32.of_int (int_range (-0x20_0000) 0x1F_FFFF))
              dst_reg );
          (1, return I.Nop);
        ]
  in
  let body_insn i len = frequency [ (8, family_insn); (2, control i len) ] in
  int_range 1 20 >>= fun len ->
  let rec body i =
    if i = len then return []
    else body_insn i len >>= fun x -> map (fun rest -> x :: rest) (body (i + 1))
  in
  body 0 >>= fun body ->
  int_range 0 (len - 1) >>= fun target ->
  (* the terminator names its back-branch target by instruction index;
     it becomes a byte offset once the sizes are known *)
  let return_insn =
    match family with A.Vax -> I.Vax_ret | A.M68k -> I.Rts | A.Sparc -> I.Retl
  in
  frequency
    [
      (2, return [ I.Halt ]);
      (1, return [ I.Br target ]);
      (2, map (fun c -> [ I.Bcc (c, target); I.Halt ]) cond);
      (1, map2 (fun cmp c -> [ cmp; I.Bcc (c, target); I.Halt ]) cmp_insn cond);
      (1, return [ I.Poll 0; I.Br target ]);
      (1, return [ return_insn ]);
      (1, return [ I.Jmp_abs target ]);
    ]
  >>= fun tail ->
  let insns = Array.of_list (body @ tail) in
  let n = Array.length insns in
  let offsets, _ = Isa.Code.compute_offsets family insns in
  let addr k = Isa.Text.text_base + offsets.(k) in
  let insns =
    Array.map
      (function
        | I.Br t -> I.Br offsets.(t)
        | I.Bcc (c, t) -> I.Bcc (c, offsets.(t))
        | I.Jmp_abs k ->
          I.Jmp_abs (if k = jump_to_zero then 0 else if k = jump_outside then 0x100 else addr k)
        | i -> i)
      insns
  in
  let word =
    frequency
      [
        (5, map (fun v -> Num v) value);
        (1, map (fun k -> Code_at k) (int_range 0 (n - 1)));
        (1, return (Num 0l));
      ]
  in
  let resolve = function Num v -> v | Code_at k -> Int32.of_int (addr k) in
  let words base w = List.mapi (fun k v -> (base + (4 * k), resolve v)) w in
  list_repeat (List.length l.data) value >>= fun vals ->
  oneofl bad_bases >>= fun bad_base ->
  frequency [ (3, map (fun k -> Code_at k) (int_range 0 (n - 1))); (1, return (Num 0l)) ]
  >>= fun link ->
  list_repeat 16 word >>= fun slots ->
  list_repeat 16 word >>= fun queued ->
  list_repeat 16 word >>= fun stacked ->
  oneofl [ Mem.low_bound; stack - 256; stack - 40; stack - 8; stack; stack + 4 ]
  >>= fun stack_limit ->
  bool >>= fun poll_requested ->
  bool >>= fun skip_poll ->
  let regs =
    List.combine l.data vals
    @ [
        (l.fp, Int32.of_int frame);
        (l.bad, bad_base);
        (l.ptr, Int32.of_int (queue + 32));
        (l.lnk, resolve link);
        (l.sp, Int32.of_int stack);
      ]
    (* SPARC returns through %o7 *)
    @ if family = A.Sparc then [ (15, resolve link) ] else []
  in
  return
    {
      arch;
      insns;
      regs;
      words = words (frame - 32) slots @ words queue queued @ words stack stacked;
      poll_requested;
      skip_poll;
      stack_limit;
    }

let pp_prog ppf (p : prog) =
  Format.fprintf ppf "%s:@." p.arch.A.id;
  Array.iteri
    (fun i insn -> Format.fprintf ppf "  %2d  %a@." i (I.pp p.arch.A.family) insn)
    p.insns;
  Format.fprintf ppf "  regs %s@."
    (String.concat " "
       (List.map (fun (r, v) -> Printf.sprintf "r%d=%ld" r v) p.regs));
  Format.fprintf ppf "  poll_requested %b, skip_poll %b, stack limit %#x@."
    p.poll_requested p.skip_poll p.stack_limit

let code_of (p : prog) =
  let code =
    Isa.Code.make ~arch:p.arch ~code_oid:77l ~class_name:"fuzz"
      ~methods:[| ("run", 0) |] p.insns
  in
  Isa.Isa_validate.check_exn code;
  code

let setup (p : prog) =
  let mem = Mem.create ~endian:p.arch.A.endian ~size:mem_size in
  List.iter (fun (a, v) -> Mem.store32 mem a v) p.words;
  let text = Isa.Text.create () in
  let img = Isa.Text.load text (code_of p) in
  let ctx = M.create_ctx p.arch in
  ctx.M.pc <- img.Isa.Text.base;
  ctx.M.poll_requested <- p.poll_requested;
  ctx.M.skip_poll <- p.skip_poll;
  ctx.M.stack_limit <- p.stack_limit;
  List.iter (fun (r, v) -> M.set_reg ctx r v) p.regs;
  (ctx, mem, text)

(* how a run ended: a stop, or an exception both engines must raise
   alike (a return into the middle of an instruction) *)
type outcome =
  | Stopped of M.stop
  | Raised of string

let outcome run = match run () with s -> Stopped s | exception e -> Raised (Printexc.to_string e)

let pp_outcome ppf = function
  | Stopped s -> M.pp_stop ppf s
  | Raised e -> Format.fprintf ppf "raised %s" e

(* everything a run can change, architectural registers included *)
type snap = {
  stop : outcome;
  pc : int;
  cc : int;
  skip : bool;
  cycles : int;
  insns : int;
  regs : int32 list;
  raw : int list;  (* the register file as held: sign-extended ints *)
  bytes : string;
}

let snap ctx mem stop =
  {
    stop;
    pc = ctx.M.pc;
    cc = ctx.M.cc;
    skip = ctx.M.skip_poll;
    cycles = ctx.M.cycles;
    insns = ctx.M.insns;
    regs = List.init (Isa.Reg.count ctx.M.arch.A.family) (M.reg ctx);
    raw = Array.to_list ctx.M.regs;
    bytes = Mem.read_string mem Mem.low_bound (mem_size - Mem.low_bound);
  }

let diff_snaps (a : snap) (b : snap) =
  if a.stop <> b.stop then
    Some (Format.asprintf "stop %a vs %a" pp_outcome a.stop pp_outcome b.stop)
  else if a.pc <> b.pc then Some (Printf.sprintf "pc %#x vs %#x" a.pc b.pc)
  else if a.cc <> b.cc then Some (Printf.sprintf "cc %d vs %d" a.cc b.cc)
  else if a.skip <> b.skip then Some (Printf.sprintf "skip_poll %b vs %b" a.skip b.skip)
  else if a.cycles <> b.cycles then
    Some (Printf.sprintf "cycles %d vs %d" a.cycles b.cycles)
  else if a.insns <> b.insns then Some (Printf.sprintf "insns %d vs %d" a.insns b.insns)
  else if a.regs <> b.regs then
    let r = ref 0 in
    while List.nth a.regs !r = List.nth b.regs !r do incr r done;
    Some
      (Printf.sprintf "register %d: %ld vs %ld" !r (List.nth a.regs !r)
         (List.nth b.regs !r))
  else if a.raw <> b.raw then Some "register file holds an unnormalised value"
  else if a.bytes <> b.bytes then
    let i = ref 0 in
    while a.bytes.[!i] = b.bytes.[!i] do incr i done;
    Some (Printf.sprintf "memory byte %#x differs" (Mem.low_bound + !i))
  else None

let is_fuel = function Stopped M.Fuel -> true | _ -> false

(* the reference, then the dispatch engine, in slices of [fuel] until a
   non-fuel stop or [total] instructions; [None] when every slice
   agreed *)
let compare_sliced p ~fuel ~total =
  let c1, m1, t1 = setup p and c2, m2, t2 = setup p in
  let cache = Isa.Dispatch.create_cache () in
  let rec go slice =
    let s1 = outcome (fun () -> M.run c1 ~mem:m1 ~text:t1 ~fuel) in
    let s2 = outcome (fun () -> Isa.Dispatch.run cache c2 ~mem:m2 ~text:t2 ~fuel) in
    match diff_snaps (snap c1 m1 s1) (snap c2 m2 s2) with
    | Some d -> Some (Printf.sprintf "fuel %d, slice %d: %s" fuel slice d)
    | None ->
      if is_fuel s1 && c1.M.insns < total then go (slice + 1) else None
  in
  go 1

let check_prog (p : prog) =
  (* n: what the reference executes before it stops, capped for loops *)
  let cap = (4 * Array.length p.insns) + 4 in
  let n =
    let c, m, t = setup p in
    ignore (outcome (fun () -> M.run c ~mem:m ~text:t ~fuel:cap));
    c.M.insns
  in
  let rec each fuel =
    if fuel > n + 1 then None
    else
      match compare_sliced p ~fuel ~total:(n + 1) with
      | Some _ as d -> d
      | None -> each (fuel + 1)
  in
  each 1

let dispatch_matches_interpreter =
  QCheck.Test.make ~name:"threaded dispatch == fetch/decode on random programs"
    ~count:1000
    (QCheck.make ~print:(Format.asprintf "%a" pp_prog) gen_prog)
    (fun p ->
      match check_prog p with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%s" d)

(* the edges the property draws at random, pinned so every run has them:
   zero divisors, [min_int32 / -1], multiply overflow, nil and
   out-of-range bases mid-batch, and SPARC %g0 as a destination *)
let edge_programs =
  let prog arch regs insns =
    let l = layout arch.A.family in
    {
      arch;
      insns = Array.of_list insns;
      regs = regs @ [ (l.fp, Int32.of_int frame); (l.bad, 0l) ];
      words = List.init 16 (fun k -> (frame + (4 * (k - 8)), Int32.of_int (k * 7)));
      poll_requested = false;
      skip_poll = false;
      stack_limit = Mem.low_bound;
    }
  in
  let min_int = O.Imm Int32.min_int in
  let slot d = O.Mem (O.Disp (14, d)) (* A6 *) in
  let vslot d = O.Mem (O.Disp (13, d)) (* FP *) in
  [
    ( "m68k min_int32 / -1, overflowing mul, mod by zero",
      prog A.sun3 []
        I.
          [
            Mov (min_int, O.Reg 1);
            Mov (O.Imm (-1l), O.Reg 2);
            Mov (O.Reg 1, O.Reg 3);
            Bin2 (Div, O.Reg 2, O.Reg 3);
            Bin2 (Mul, O.Reg 1, O.Reg 1);
            Bin2 (Mul, O.Imm 0x10001l, O.Reg 2);
            Mov (O.Reg 3, slot (-4));
            Mov (O.Imm 0l, O.Reg 0);
            Bin2 (Mod, O.Reg 0, O.Reg 3);
            Halt;
          ] );
    ( "m68k nil base mid-batch",
      prog A.hp9000_433 []
        I.
          [
            Mov (O.Imm 5l, O.Reg 1);
            Bin2 (Add, O.Imm 7l, O.Reg 1);
            Mov (O.Reg 1, slot 0);
            Mov (O.Mem (O.Disp (13, 4)), O.Reg 2);
            Bin2 (Sub, O.Reg 1, O.Reg 2);
            Halt;
          ] );
    ( "vax div by zero and out-of-range slot mid-batch",
      prog A.vax [ (1, 9l); (2, 0l) ]
        I.
          [
            Bin3 (Add, O.Reg 1, O.Imm 1l, O.Reg 3);
            Bin3 (Mul, O.Reg 3, O.Imm Int32.max_int, O.Reg 4);
            Mov (O.Reg 4, vslot (-8));
            Bin3 (Div, O.Reg 1, O.Reg 2, O.Reg 5);
            Halt;
          ] );
    ( "vax out-of-range base",
      prog A.vax [ (1, 3l) ]
        I.
          [
            Mov (O.Imm 0x7FFF_0000l, O.Reg 12);
            Bin3 (Add, O.Reg 1, O.Reg 1, O.Reg 2);
            Mov (O.Reg 2, O.Mem (O.Disp (12, 0)));
            Halt;
          ] );
    ( "sparc %g0 destinations and min_int32 / -1",
      prog A.sparc [ (1, Int32.min_int); (8, -1l) ]
        I.
          [
            Bin3 (Add, O.Reg 1, O.Imm 5l, O.Reg 0);
            Mov (O.Imm 9l, O.Reg 0);
            Sethi (0x3FFl, 0);
            Mov (O.Mem (O.Disp (30, -4)), O.Reg 0);
            Bin3 (Div, O.Reg 1, O.Reg 8, O.Reg 9);
            Bin3 (Mod, O.Reg 1, O.Reg 8, O.Reg 16);
            Bin3 (Mul, O.Reg 1, O.Reg 1, O.Reg 17);
            Bin3 (Add, O.Reg 0, O.Reg 9, O.Reg 24);
            Cmp (O.Reg 24, O.Reg 0);
            Bcc (I.Ne, 0);
            Halt;
          ] );
    ( "sparc nil base mid-batch",
      prog A.sparc [ (1, 4l) ]
        I.
          [
            Bin3 (Add, O.Reg 1, O.Reg 1, O.Reg 8);
            Mov (O.Reg 8, O.Mem (O.Disp (30, 0)));
            Mov (O.Mem (O.Disp (29, 8)), O.Reg 0);
            Mov (O.Mem (O.Disp (29, 8)), O.Reg 9);
            Halt;
          ] );
    (* the interpreter evaluates operands right to left: two
       autoincrements of one pointer read their words in that order,
       and of two faulting sources the right one traps *)
    ( "vax operand evaluation order",
      prog A.vax [ (11, Int32.of_int (frame - 16)) ]
        I.
          [
            Bin3 (Sub, O.Mem (O.Autoinc 11), O.Mem (O.Autoinc 11), O.Reg 1);
            Fbin3 (Add, O.Mem (O.Autoinc 11), O.Mem (O.Autodec 11), O.Reg 2);
            Cmp (O.Mem (O.Autoinc 11), O.Mem (O.Autodec 11));
            Fcmp (O.Mem (O.Autodec 11), O.Mem (O.Autoinc 11));
            Mov (O.Mem (O.Autoinc 11), O.Mem (O.Autoinc 11));
            Bin3 (Add, O.Mem (O.Disp (12, 0)), O.Mem (O.Abs 0x7FFF_0000l), O.Reg 3);
            Halt;
          ] );
    ( "m68k operand evaluation order",
      prog A.sun3 [ (12, Int32.of_int (frame - 16)) ]
        I.
          [
            Bin2 (Sub, O.Mem (O.Autoinc 12), O.Reg 1);
            Cmp (O.Mem (O.Autoinc 12), O.Mem (O.Autodec 12));
            Fcmp (O.Mem (O.Autodec 12), O.Mem (O.Autoinc 12));
            Mov (O.Mem (O.Autodec 12), O.Mem (O.Autoinc 12));
            Cmp (O.Mem (O.Disp (13, 0)), O.Mem (O.Abs 0x7FFF_0000l));
            Halt;
          ] );
  ]

let test_edge_programs () =
  List.iter
    (fun (name, p) ->
      match check_prog p with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s@.%a" name d pp_prog p)
    edge_programs

(* ---------------------------------------------------------------- *)
(* a warm slice allocates nothing                                      *)
(* ---------------------------------------------------------------- *)

(* the words the minor heap grew by while [f] ran *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* a jump over a halt (so the driver re-enters through the text map
   mid-slice), a register batch, then [last] *)
let warm_program arch last =
  let r i = O.Reg (List.nth (layout arch.A.family).data (i + 1)) in
  let make target =
    Isa.Code.make ~arch ~code_oid:78l ~class_name:"warm" ~methods:[| ("run", 0) |]
      I.
        [|
          Jmp_abs target;
          Halt;
          Mov (O.Imm 3l, r 0);
          Mov (O.Imm 4l, r 1);
          Mov (r 0, r 2);
          Mov (r 1, r 0);
          last;
        |]
  in
  (* a fresh text map loads its first image at the same base *)
  let probe = make 0 in
  let base = (Isa.Text.load (Isa.Text.create ()) probe).Isa.Text.base in
  make (base + probe.Isa.Code.offsets.(2))

(* a bottom return pops the sentinel return address 0: from the frame
   on the VAX, the stack on the 68k, %o7 on the SPARC *)
let bottom_return (arch : A.t) =
  match arch.A.family with A.Vax -> I.Vax_ret | A.M68k -> I.Rts | A.Sparc -> I.Retl

let stop_t = Alcotest.testable M.pp_stop ( = )

let test_warm_slice_allocates_nothing () =
  List.iter
    (fun (arch : A.t) ->
      List.iter
        (fun (what, last, want) ->
          let code = warm_program arch last in
          let mem = Mem.create ~endian:arch.A.endian ~size:mem_size in
          let text = Isa.Text.create () in
          let img = Isa.Text.load text code in
          let ctx = M.create_ctx arch in
          let cache = Isa.Dispatch.create_cache () in
          let reset () =
            ctx.M.pc <- img.Isa.Text.base;
            ctx.M.poll_requested <- true;
            ctx.M.skip_poll <- false;
            M.set_sp ctx frame;
            M.set_fp ctx frame;
            if arch.A.family = A.Sparc then M.set_reg_int ctx 15 0
          in
          let slice () =
            ignore (Isa.Dispatch.run cache ctx ~mem ~text ~fuel:1000 : M.stop)
          in
          reset ();
          slice ();
          reset ();
          let words = minor_words slice in
          reset ();
          let stop = Isa.Dispatch.run cache ctx ~mem ~text ~fuel:1000 in
          let name = Printf.sprintf "%s slice ending at %s" arch.A.id what in
          check stop_t (name ^ ": stop") want stop;
          check (Alcotest.float 0.0) (name ^ ": words") 0.0 words)
        [
          ("a system call", I.Syscall 7, M.Syscall 7);
          ("a poll", I.Poll 0, M.Poll);
          ("a bottom return", bottom_return arch, M.Bottom_return);
        ])
    [ A.vax; A.sun3; A.sparc ]

(* ---------------------------------------------------------------- *)
(* a lone thread past the 50M-instruction slice                      *)
(* ---------------------------------------------------------------- *)

let spinner_src =
  {|
object Spinner
  operation spin[rounds : int, spins : int] -> [r : int]
    var i : int <- 0
    var j : int <- 0
    var t : int <- 0
    var u : int <- 0
    var v : int <- 0
    var acc : int <- 0
    loop
      exit when i >= rounds
      i <- i + 1
      j <- 0
      loop
        exit when j >= spins
        j <- j + 1
        t <- acc + j
        u <- t + i
        v <- u - j
        t <- t + v
        acc <- v + t
      end loop
    end loop
    r <- acc
  end spin
end Spinner
|}

(* 1500 x 1000 rounds run ~52M instructions with no other thread on the
   node, so nothing ever requests a poll: the slice's fuel runs out, and
   the kernel must run on to the next bus stop instead of aborting *)
let test_lone_thread_outruns_slice () =
  let prog = Emc.Compile.compile_exn ~name:"spin" ~archs:[ A.sparc ] spinner_src in
  let run ~threaded =
    let cl = Core.Cluster.create ~archs:[ A.sparc ] () in
    Ert.Kernel.set_threaded (Core.Cluster.kernel cl 0) threaded;
    Core.Cluster.load_program cl prog;
    let s = Core.Cluster.create_object cl ~node:0 ~class_name:"Spinner" in
    let tid =
      Core.Cluster.spawn cl ~node:0 ~target:s ~op:"spin"
        ~args:[ Ert.Value.Vint 1500l; Ert.Value.Vint 1000l ]
    in
    let r =
      match Core.Cluster.run_until_result cl tid with
      | Some (Ert.Value.Vint v) -> v
      | _ -> Alcotest.fail "spinner did not return an int"
    in
    ( r,
      Ert.Kernel.insns_executed (Core.Cluster.kernel cl 0),
      Core.Cluster.global_time_us cl )
  in
  let r_thr, insns_thr, t_thr = run ~threaded:true in
  let r_ref, insns_ref, t_ref = run ~threaded:false in
  (* the value of the spinner's 32-bit mirror, [Jobs.spin_digest] in
     bench/perf *)
  check Alcotest.int32 "result" 1_410_381_744l r_thr;
  check Alcotest.bool "more than one 50M slice" true (insns_thr > 50_000_000);
  check Alcotest.int32 "fetch/decode result" r_thr r_ref;
  check Alcotest.int "insns equal under both engines" insns_ref insns_thr;
  check (Alcotest.float 0.0) "virtual time equal under both engines" t_ref t_thr

let suites =
  [
    ( "dispatch",
      [
        qcheck dispatch_matches_interpreter;
        Alcotest.test_case "pinned edge programs" `Quick test_edge_programs;
        Alcotest.test_case "a warm slice allocates nothing" `Quick
          test_warm_slice_allocates_nothing;
        Alcotest.test_case "a lone thread outruns a 50M slice" `Slow
          test_lone_thread_outruns_slice;
      ] );
  ]
