(* Pre-decoded execution: each path through a code image is translated
   once, on first execution, into an array of int-domain micro-ops that
   one loop runs straight on the register file — no fetch, no decode and
   no operand match in steady state.  A path starts where control enters
   (a method entry, a return point, a branch target) and runs on through
   each conditional branch, which becomes a side exit when taken, and
   into each unconditional branch's target, until it reaches a dynamic
   transfer, a system call, a halt, an instruction it already holds or
   the head of another path.  A static branch chains into its target's
   path, translated once and kept in the table; a dynamic transfer (an
   indirect call, a return, an absolute jump) returns to [drive], which
   resolves the PC through the text map.

   Semantics are the fetch/decode interpreter's, bit for bit.  The
   register, immediate and frame-slot forms of moves, integer arithmetic
   and compares are dedicated micro-ops; every other instruction runs
   {!Machine}'s own primitives over operands resolved at translation, in
   the interpreter's (right-to-left) evaluation order made explicit.  The
   loop counts nothing per micro-op: at every exit it settles cycles and
   instructions from the path's prefix sums, and it leaves the PC on a
   trapping or fuel-stopped micro-op.  A run under this engine and a run
   under [Machine.run] produce the same stop, the same context, the same
   memory and the same counters. *)

module M = Machine

(* why a path returned to the driver; [S_jump] is a dynamic control
   transfer whose target the driver resolves through the text map, and
   [S_next] (what a generic micro-op returns when it falls through)
   never reaches it.  No stop carries the fuel left: every exit settles
   one instruction per micro-op it ran, so the driver reads the fuel
   left off [ctx.insns] *)
type stop =
  | S_next
  | S_fuel
  | S_poll
  | S_syscall of M.stop  (* the [Syscall] stop, built at translation *)
  | S_bottom
  | S_halt
  | S_jump

type stats = {
  mutable st_paths : int;  (* paths translated *)
  mutable st_insns : int;  (* instructions translated, once per path holding them *)
  mutable st_slices : int;  (* run slices driven *)
}

(* an operand of a generic micro-op, its addressing mode matched and its
   immediate converted once; registers go through {!Machine.reg_int} and
   [set_reg_int], which keep the SPARC %g0 rule and the bounds check *)
type opd =
  | D_reg of int
  | D_imm of int
  | D_abs of int
  | D_disp of int * int
  | D_autoinc of int
  | D_autodec of int

(* The dedicated forms' register fields are proved in range and never
   %g0 at translation (a %g0 source is folded to the immediate 0, a %g0
   destination discards), immediates are sign-extended ints and frame
   slots are [(base register, displacement)]; these micro-ops trap only
   on a nil or out-of-range base or a zero divisor.  A side exit names
   its target's PC and its instruction index in the image, or -1 when no
   instruction of the image starts there (the driver resolves it). *)
type uop =
  | U_nop  (* also a branch whose target the path runs on into *)
  | U_mov_rr of int * int  (* rs, rd *)
  | U_mov_ir of int * int  (* imm, rd *)
  | U_mov_mr of int * int * int  (* base, disp, rd *)
  | U_mov_md of int * int  (* base, disp: load for fault fidelity, drop *)
  | U_mov_rm of int * int * int  (* rs, base, disp *)
  | U_mov_im of int * int * int  (* imm, base, disp *)
  | U_mov_mm of int * int * int * int  (* src base/disp, dst base/disp *)
  | U_neg of int * int  (* rs, rd *)
  | U_bin3 of Insn.binop * int * int * int  (* ra, rb, rd: rd <- ra op rb *)
  | U_bin3_i of Insn.binop * int * int * int  (* ra, imm, rd *)
  | U_bin2 of Insn.binop * int * int  (* rs, rd: rd <- rd op rs; cc *)
  | U_bin2_i of Insn.binop * int * int  (* imm, rd *)
  | U_cmp_rr of int * int
  | U_cmp_ri of int * int  (* ra, imm *)
  | U_cmp_ir of int * int  (* imm, rb *)
  | U_cc_const of int
  | U_bcc of Insn.cmp * int * int  (* taken: a side exit to (pc, index) *)
  | U_poll
  | U_syscall of stop
  | U_insn of Insn.t * opd * opd * opd * int
      (* any other instruction, its operands and the PC after it *)

type path = {
  p_ops : uop array;
  p_pcs : int array;  (* the PC of each micro-op *)
  p_cyc : int array;  (* [p_cyc.(k)]: the cycles of the first k micro-ops *)
  p_next_pc : int;  (* where running off the end goes (-1: it cannot), *)
  p_next : int;  (* and its index in the image, or -1 *)
}

type table = {
  t_code : Code.t;
  t_base : int;
  t_mem : Memory.t;  (* validity token: a fresh memory voids the table *)
  t_uops : uop array;  (* each instruction decoded, by index *)
  t_paths : path array;  (* by head instruction index; [no_path] until translated *)
  t_walk : int array;  (* the walk's scratch: the path being translated *)
  t_stats : stats;
}

type cache = {
  mutable tables : ((int32 * int) * table) list;
      (* keyed per code instance: (code OID, instance tag) *)
  stats : stats;
}

let create_cache () = { tables = []; stats = { st_paths = 0; st_insns = 0; st_slices = 0 } }
let stats c = c.stats

let no_path = { p_ops = [||]; p_pcs = [||]; p_cyc = [| 0 |]; p_next_pc = 0; p_next = -1 }

(* the exact -1/0/1 sign [Int32.compare] stores into [cc], on the
   register file's sign-extended ints *)
let sign_cmp (a : int) b = if a < b then -1 else if a > b then 1 else 0

(* {!Machine.sx}, defined here so that it inlines *)
let sx v = ((v land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000

(* {!Machine.int_binop} on the register file's sign-extended ints for a
   divisor that does not trap: [sx] makes wrap-around and [min_int32 / -1]
   agree with [Int32]; the remainder and the bitwise results need none *)
let[@inline] alu_nz (op : Insn.binop) a b =
  match op with
  | Insn.Add -> sx (a + b)
  | Insn.Sub -> sx (a - b)
  | Insn.Mul -> sx (a * b)
  | Insn.Div -> sx (a / b)
  | Insn.Mod -> a mod b
  | Insn.And -> a land b
  | Insn.Or -> a lor b
  | Insn.Xor -> a lxor b

let traps_on_zero (op : Insn.binop) = match op with Insn.Div | Insn.Mod -> true | _ -> false

(* --- the generic micro-op: {!Machine}'s primitives over resolved
   operands, the interpreter's arms one for one *)

let resolve = function
  | Operand.Reg r -> D_reg r
  | Operand.Imm i -> D_imm (Int32.to_int i)
  | Operand.Mem (Operand.Abs a) -> D_abs (Int32.to_int a)
  | Operand.Mem (Operand.Disp (r, d)) -> D_disp (r, d)
  | Operand.Mem (Operand.Autoinc r) -> D_autoinc r
  | Operand.Mem (Operand.Autodec r) -> D_autodec r

let get ctx mem = function
  | D_reg r -> M.reg_int ctx r
  | D_imm i -> i
  | D_abs a -> M.load_int mem (M.addr_of a)
  | D_disp (r, d) -> M.load_int mem (M.addr_of (M.reg_int ctx r) + d)
  | D_autoinc r ->
    let a = M.addr_of (M.reg_int ctx r) in
    let v = M.load_int mem a in
    M.set_reg_int ctx r (a + 4);
    v
  | D_autodec r ->
    let a = M.addr_of (M.reg_int ctx r) - 4 in
    M.set_reg_int ctx r a;
    M.load_int mem a

let set ctx mem d v =
  match d with
  | D_reg r -> M.set_reg_int ctx r v
  | D_imm _ -> raise (M.Trapped (M.Bad_insn "immediate destination"))
  | D_abs a -> M.store_int mem (M.addr_of a) v
  | D_disp (r, d) -> M.store_int mem (M.addr_of (M.reg_int ctx r) + d) v
  | D_autoinc r ->
    let a = M.addr_of (M.reg_int ctx r) in
    M.store_int mem a v;
    M.set_reg_int ctx r (a + 4)
  | D_autodec r ->
    let a = M.addr_of (M.reg_int ctx r) - 4 in
    M.set_reg_int ctx r a;
    M.store_int mem a v

let int_binop op a b =
  if b = 0 && traps_on_zero op then raise (M.Trapped M.Div_zero) else alu_nz op a b

(* the float operations are the only ones that leave the int domain *)
let float_binop (ctx : M.ctx) op a b =
  Int32.to_int
    (M.float_binop ctx.M.arch.Arch.float_format op (Int32.of_int a) (Int32.of_int b))

let float_decode (ctx : M.ctx) v =
  try Float_format.decode ctx.M.arch.Arch.float_format (Int32.of_int v)
  with Float_format.Reserved_operand m -> raise (M.Trapped (M.Float_reserved m))

(* a return pops the sentinel return address 0 at a segment's bottom *)
let return_to (ctx : M.ctx) target =
  if target = 0 then S_bottom
  else begin
    ctx.M.pc <- target;
    S_jump
  end

(* one instruction, the PC on it: [S_next] when it falls through, else
   the stop that ends the path *)
let exec (ctx : M.ctx) mem insn a b c next_pc =
  match insn with
  | Insn.Mov _ ->
    let v = get ctx mem a in
    set ctx mem b v;
    S_next
  | Insn.Bin3 (op, _, _, _) ->
    let vb = get ctx mem b in
    let va = get ctx mem a in
    set ctx mem c (int_binop op va vb);
    S_next
  | Insn.Bin2 (op, _, _) ->
    let va = get ctx mem a in
    let vb = get ctx mem b in
    let v = int_binop op vb va in
    set ctx mem b v;
    ctx.M.cc <- sign_cmp v 0;
    S_next
  | Insn.Fbin3 (op, _, _, _) ->
    let vb = get ctx mem b in
    let va = get ctx mem a in
    set ctx mem c (float_binop ctx op va vb);
    S_next
  | Insn.Fbin2 (op, _, _) ->
    let va = get ctx mem a in
    let vb = get ctx mem b in
    set ctx mem b (float_binop ctx op vb va);
    S_next
  | Insn.Neg _ ->
    let va = get ctx mem a in
    set ctx mem b (sx (-va));
    S_next
  | Insn.Fneg _ ->
    let va = get ctx mem a in
    let zero = Int32.to_int (Float_format.encode ctx.M.arch.Arch.float_format 0.0) in
    set ctx mem b (float_binop ctx Insn.Sub zero va);
    S_next
  | Insn.Cvt_if _ ->
    let va = get ctx mem a in
    set ctx mem b
      (Int32.to_int (Float_format.encode ctx.M.arch.Arch.float_format (Float.of_int va)));
    S_next
  | Insn.Cvt_fi _ ->
    let f = float_decode ctx (get ctx mem a) in
    set ctx mem b (Int32.to_int (Int32.of_float f));
    S_next
  | Insn.Cmp _ ->
    let vb = get ctx mem b in
    let va = get ctx mem a in
    ctx.M.cc <- sign_cmp va vb;
    S_next
  | Insn.Fcmp _ ->
    let yb = float_decode ctx (get ctx mem b) in
    let ya = float_decode ctx (get ctx mem a) in
    ctx.M.cc <- Float.compare ya yb;
    S_next
  | Insn.Push _ ->
    M.push_int ctx mem (get ctx mem a);
    S_next
  | Insn.Vax_entry size ->
    M.push_int ctx mem 0;
    M.push_int ctx mem (M.fp ctx);
    M.set_fp ctx (M.sp ctx);
    M.set_sp ctx (M.sp ctx - size);
    M.check_stack ctx;
    S_next
  | Insn.Link size ->
    M.push_int ctx mem (M.fp ctx);
    M.set_fp ctx (M.sp ctx);
    M.set_sp ctx (M.sp ctx - size);
    M.check_stack ctx;
    S_next
  | Insn.Unlk ->
    M.set_sp ctx (M.fp ctx);
    M.set_fp ctx (M.pop_int ctx mem);
    S_next
  | Insn.Save size ->
    M.sparc_save ctx mem size;
    S_next
  | Insn.Restore ->
    M.sparc_restore ctx mem;
    S_next
  | Insn.Sethi (i, r) ->
    M.set_reg_int ctx r (Int32.to_int (Int32.shift_left i 10));
    S_next
  | Insn.Remque (rs, rd) ->
    let sent = M.addr_of (M.reg_int ctx rs) in
    let first = M.load_int mem sent in
    if first = sent then M.set_reg_int ctx rd 0
    else begin
      let nxt = M.load_int mem first in
      M.store_int mem sent nxt;
      M.store_int mem (nxt + 4) sent;
      M.set_reg_int ctx rd first
    end;
    S_next
  | Insn.Nop -> S_next
  | Insn.Jmp_abs target ->
    if target = 0 then raise (M.Trapped (M.Bad_pc 0));
    ctx.M.pc <- target;
    S_jump
  | Insn.Jsr_ind r ->
    let target = M.reg_int ctx r in
    if target = 0 then raise (M.Trapped (M.Bad_pc 0));
    (match ctx.M.arch.Arch.family with
    | Arch.Vax | Arch.M68k -> M.push_int ctx mem next_pc
    | Arch.Sparc -> M.set_reg_int ctx 15 next_pc);
    ctx.M.pc <- target;
    S_jump
  | Insn.Vax_ret ->
    M.set_sp ctx (M.fp ctx);
    M.set_fp ctx (M.pop_int ctx mem);
    let _mask = M.pop_int ctx mem in
    return_to ctx (M.pop_int ctx mem)
  | Insn.Rts -> return_to ctx (M.pop_int ctx mem)
  | Insn.Retl -> return_to ctx (M.reg_int ctx 15)
  | Insn.Halt -> S_halt
  | Insn.Bcc _ | Insn.Br _ | Insn.Poll _ | Insn.Syscall _ ->
    assert false (* translated as their own micro-ops *)

(* --- translation *)

(* the instruction index at byte offset [off] of [code], or -1 *)
let index_or_none (code : Code.t) off =
  if off >= 0 && off < Array.length code.Code.index_dense then code.Code.index_dense.(off)
  else -1

let reg_is_g0 (code : Code.t) r =
  (match code.Code.arch.Arch.family with Arch.Sparc -> true | _ -> false) && r = 0

let reg_ok (code : Code.t) r =
  r >= 0 && r < Reg.count code.Code.arch.Arch.family && not (reg_is_g0 code r)

(* a dedicated form's source and destination: a register, an immediate
   or a frame slot, a %g0 source read as 0 and a %g0 destination
   discarded ([`D]) *)
let src code = function
  | Operand.Reg r when reg_is_g0 code r -> Some (`I 0)
  | Operand.Reg r when reg_ok code r -> Some (`R r)
  | Operand.Imm i -> Some (`I (Int32.to_int i))
  | Operand.Mem (Operand.Disp (r, d)) when reg_ok code r -> Some (`S (r, d))
  | _ -> None

let dst code = function
  | Operand.Reg r when reg_is_g0 code r -> Some `D
  | Operand.Reg r when reg_ok code r -> Some (`R r)
  | Operand.Mem (Operand.Disp (r, d)) when reg_ok code r -> Some (`S (r, d))
  | _ -> None

(* instruction [j] of an image based at [base] as a micro-op: a
   dedicated form when its operands allow, else the generic one *)
let uop_of (code : Code.t) base j =
  let insn = code.Code.insns.(j) in
  let dedicated =
    match insn with
    | Insn.Mov (a, b) -> (
      match (src code a, dst code b) with
      | Some (`R rs), Some (`R rd) -> Some (U_mov_rr (rs, rd))
      | Some (`I v), Some (`R rd) -> Some (U_mov_ir (v, rd))
      | Some (`S (rb, d)), Some (`R rd) -> Some (U_mov_mr (rb, d, rd))
      | Some (`R rs), Some (`S (rb, d)) -> Some (U_mov_rm (rs, rb, d))
      | Some (`I v), Some (`S (rb, d)) -> Some (U_mov_im (v, rb, d))
      | Some (`S (sb, sd)), Some (`S (db, dd)) -> Some (U_mov_mm (sb, sd, db, dd))
      | Some (`S (rb, d)), Some `D -> Some (U_mov_md (rb, d))
      | Some (`R _ | `I _), Some `D -> Some U_nop
      | _ -> None)
    | Insn.Bin3 (op, a, b, c) -> (
      match (src code a, src code b, dst code c) with
      | Some (`R ra), Some (`R rb), Some (`R rd) -> Some (U_bin3 (op, ra, rb, rd))
      | Some (`R ra), Some (`I ib), Some (`R rd) -> Some (U_bin3_i (op, ra, ib, rd))
      | _ -> None)
    | Insn.Bin2 (op, a, b) -> (
      match (src code a, dst code b) with
      | Some (`R rs), Some (`R rd) -> Some (U_bin2 (op, rs, rd))
      | Some (`I ia), Some (`R rd) -> Some (U_bin2_i (op, ia, rd))
      | _ -> None)
    | Insn.Cmp (a, b) -> (
      match (src code a, src code b) with
      | Some (`R ra), Some (`R rb) -> Some (U_cmp_rr (ra, rb))
      | Some (`R ra), Some (`I ib) -> Some (U_cmp_ri (ra, ib))
      | Some (`I ia), Some (`R rb) -> Some (U_cmp_ir (ia, rb))
      | Some (`I ia), Some (`I ib) -> Some (U_cc_const (sign_cmp ia ib))
      | _ -> None)
    | Insn.Neg (a, b) -> (
      match (src code a, dst code b) with
      | Some (`R ra), Some (`R rd) -> Some (U_neg (ra, rd))
      | Some (`I ia), Some (`R rd) -> Some (U_mov_ir (sx (-ia), rd))
      | _ -> None)
    | Insn.Sethi (i, r) ->
      if reg_ok code r then Some (U_mov_ir (Int32.to_int (Int32.shift_left i 10), r))
      else if reg_is_g0 code r then Some U_nop
      else None
    | Insn.Nop | Insn.Br _ -> Some U_nop
    | Insn.Bcc (c, t) -> Some (U_bcc (c, base + t, index_or_none code t))
    | Insn.Poll _ -> Some U_poll
    | Insn.Syscall n -> Some (U_syscall (S_syscall (M.Syscall n)))
    | _ -> None
  in
  match dedicated with
  | Some u -> u
  | None ->
    let none = D_imm 0 in
    let a, b, c =
      match insn with
      | Insn.Mov (a, b) | Insn.Bin2 (_, a, b) | Insn.Fbin2 (_, a, b) | Insn.Neg (a, b)
      | Insn.Fneg (a, b) | Insn.Cvt_if (a, b) | Insn.Cvt_fi (a, b) | Insn.Cmp (a, b)
      | Insn.Fcmp (a, b) ->
        (resolve a, resolve b, none)
      | Insn.Bin3 (_, a, b, c) | Insn.Fbin3 (_, a, b, c) -> (resolve a, resolve b, resolve c)
      | Insn.Push a -> (resolve a, none, none)
      | _ -> (none, none, none)
    in
    let next_pc = base + code.Code.offsets.(j) + code.Code.insn_sizes.(j) in
    U_insn (insn, a, b, c, next_pc)

let new_table (code : Code.t) mem base stats =
  let n = Array.length code.Code.insns in
  {
    t_code = code;
    t_base = base;
    t_mem = mem;
    t_uops = Array.init n (uop_of code base);
    t_paths = Array.make n no_path;
    t_walk = Array.make n 0;
    t_stats = stats;
  }

(* The translator's walk: the path headed at [head] into [t_walk], in
   the order it runs them, and the byte offset it runs off to, -1 when
   it ends in a dynamic transfer, a system call or a halt.  It stops
   before an instruction it already holds or another path's head. *)
let walk tbl head =
  let code = tbl.t_code and held = tbl.t_walk in
  let insns = code.Code.insns in
  let rec holds j k = k > 0 && (held.(k - 1) = j || holds j (k - 1)) in
  let rec go j len =
    if j >= Array.length insns then (len, code.Code.byte_size)
    else if tbl.t_paths.(j) != no_path || holds j len then (len, code.Code.offsets.(j))
    else begin
      held.(len) <- j;
      match insns.(j) with
      | Insn.Br t ->
        let k = index_or_none code t in
        if k < 0 then (len + 1, t) else go k (len + 1)
      | Insn.Jmp_abs _ | Insn.Jsr_ind _ | Insn.Vax_ret | Insn.Rts | Insn.Retl
      | Insn.Syscall _ | Insn.Halt ->
        (len + 1, -1)
      | _ -> go (j + 1) (len + 1)
    end
  in
  go head 0

(* translate the path headed at [head] and keep it in the table *)
let translate tbl head =
  let code = tbl.t_code and base = tbl.t_base and held = tbl.t_walk in
  let len, next = walk tbl head in
  let ops = Array.make len U_nop and pcs = Array.make len 0 in
  let cyc = Array.make (len + 1) 0 in
  for k = 0 to len - 1 do
    let j = held.(k) in
    ops.(k) <- tbl.t_uops.(j);
    pcs.(k) <- base + code.Code.offsets.(j);
    cyc.(k + 1) <- cyc.(k) + code.Code.insn_cycles.(j)
  done;
  let p =
    {
      p_ops = ops;
      p_pcs = pcs;
      p_cyc = cyc;
      p_next_pc = (if next < 0 then -1 else base + next);
      p_next = (if next < 0 then -1 else index_or_none code next);
    }
  in
  tbl.t_paths.(head) <- p;
  tbl.t_stats.st_paths <- tbl.t_stats.st_paths + 1;
  tbl.t_stats.st_insns <- tbl.t_stats.st_insns + len;
  p

let path_at tbl idx =
  let p = Array.unsafe_get tbl.t_paths idx in
  if p == no_path then translate tbl idx else p

(* --- the loop *)

let[@inline] settle p (ctx : M.ctx) k =
  ctx.M.cycles <- ctx.M.cycles + Array.unsafe_get p.p_cyc k;
  ctx.M.insns <- ctx.M.insns + k

(* stop at micro-op [i], counting it, the PC on it *)
let stop_at p ctx i s =
  settle p ctx (i + 1);
  ctx.M.pc <- p.p_pcs.(i);
  s

(* a trap at micro-op [i]: charge it and the ones before, PC on it; the
   registers and memory already hold exactly the writes before it *)
let fault p ctx i t = raise (stop_at p ctx i (M.Trapped t))

(* a frame-slot address: [addr_of]'s mask-and-nil check and {!Memory}'s
   own bounds test, inlined so a fault is attributed to its micro-op *)
let[@inline] slot p ctx mem (regs : int array) i b d =
  let a = Array.unsafe_get regs b land 0xFFFF_FFFF in
  if a = 0 then fault p ctx i M.Nil_deref;
  let a = a + d in
  if a < Memory.low_bound || a + 4 > Memory.size mem then fault p ctx i (M.Mem_fault a);
  a

let[@inline] alu p ctx i op a b =
  if b = 0 && traps_on_zero op then fault p ctx i M.Div_zero else alu_nz op a b

(* run path [p] from its head with [fuel] (at least 1) left: the
   micro-ops before [last] run in one loop, and one that leaves the path
   ends the loop by setting [last] to 0 *)
let rec enter tbl p ctx fuel =
  let ops = p.p_ops and regs = ctx.M.regs and mem = tbl.t_mem in
  let len = Array.length ops in
  let last = ref (if fuel < len then fuel else len) in
  let i = ref 0 in
  let stop = ref S_next in  (* what a generic micro-op that left returned *)
  while !i < !last do
    let i' = !i in
    (match Array.unsafe_get ops i' with
    | U_nop -> ()
    | U_mov_rr (s, d) -> Array.unsafe_set regs d (Array.unsafe_get regs s)
    | U_mov_ir (v, d) -> Array.unsafe_set regs d v
    | U_mov_mr (b, o, d) ->
      let a = slot p ctx mem regs i' b o in
      Array.unsafe_set regs d (sx (Memory.unsafe_load32_bits mem a))
    | U_mov_md (b, o) -> ignore (Memory.unsafe_load32_bits mem (slot p ctx mem regs i' b o))
    | U_mov_rm (s, b, o) ->
      Memory.unsafe_store32_bits mem (slot p ctx mem regs i' b o) (Array.unsafe_get regs s)
    | U_mov_im (v, b, o) -> Memory.unsafe_store32_bits mem (slot p ctx mem regs i' b o) v
    | U_mov_mm (sb, so, db, dox) ->
      let v = Memory.unsafe_load32_bits mem (slot p ctx mem regs i' sb so) in
      Memory.unsafe_store32_bits mem (slot p ctx mem regs i' db dox) v
    | U_neg (s, d) -> Array.unsafe_set regs d (sx (-Array.unsafe_get regs s))
    | U_bin3 (op, a, b, d) ->
      Array.unsafe_set regs d
        (alu p ctx i' op (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | U_bin3_i (op, a, k, d) ->
      Array.unsafe_set regs d (alu p ctx i' op (Array.unsafe_get regs a) k)
    | U_bin2 (op, s, d) ->
      let v = alu p ctx i' op (Array.unsafe_get regs d) (Array.unsafe_get regs s) in
      Array.unsafe_set regs d v;
      ctx.M.cc <- sign_cmp v 0
    | U_bin2_i (op, k, d) ->
      let v = alu p ctx i' op (Array.unsafe_get regs d) k in
      Array.unsafe_set regs d v;
      ctx.M.cc <- sign_cmp v 0
    | U_cmp_rr (a, b) ->
      ctx.M.cc <- sign_cmp (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | U_cmp_ri (a, k) -> ctx.M.cc <- sign_cmp (Array.unsafe_get regs a) k
    | U_cmp_ir (k, b) -> ctx.M.cc <- sign_cmp k (Array.unsafe_get regs b)
    | U_cc_const c -> ctx.M.cc <- c
    | U_bcc (c, _, _) -> if M.eval_cc c ctx.M.cc then last := 0
    | U_poll ->
      if ctx.M.skip_poll then ctx.M.skip_poll <- false
      else if ctx.M.poll_requested then last := 0
    | U_syscall _ -> last := 0
    | U_insn (insn, a, b, c, next_pc) -> (
      ctx.M.pc <- Array.unsafe_get p.p_pcs i';
      match exec ctx mem insn a b c next_pc with
      | S_next -> ()
      | s ->
        stop := s;
        last := 0
      | exception e ->
        settle p ctx (i' + 1);
        raise e));
    i := i' + 1
  done;
  let k = !i in
  if !last > 0 then
    if k < len then begin
      settle p ctx k;
      ctx.M.pc <- p.p_pcs.(k);
      S_fuel
    end
    else leave tbl p ctx fuel k p.p_next_pc p.p_next
  else
    match ops.(k - 1) with
    | U_bcc (_, pc, idx) -> leave tbl p ctx fuel k pc idx
    | U_poll -> stop_at p ctx (k - 1) S_poll
    | U_syscall s -> stop_at p ctx (k - 1) s
    | _ ->
      (* a generic micro-op's transfer, return or halt; it placed the PC *)
      settle p ctx k;
      !stop

(* leave [p] after its first [k] micro-ops for [pc], instruction [idx]
   of the image (-1: the driver resolves [pc]) *)
and leave tbl p ctx fuel k pc idx =
  settle p ctx k;
  ctx.M.pc <- pc;
  if idx < 0 then S_jump
  else if fuel <= k then S_fuel
  else enter tbl (path_at tbl idx) ctx (fuel - k)

(* table lookup keyed by code OID; a table is valid only for the memory
   and load address it was translated against (a node restart brings a
   fresh memory, voiding every table through the physical-equality
   check) *)
let rec cached_table (code : Code.t) mem base = function
  | [] -> raise_notrace Not_found
  | ((oid, i), tbl) :: rest ->
    if
      Int32.equal oid code.Code.code_oid && i = code.Code.code_inst
      && tbl.t_mem == mem && tbl.t_base = base && tbl.t_code == code
    then tbl
    else cached_table code mem base rest

let table_for cache ~mem (img : Text.image) =
  let code = img.Text.code in
  let base = img.Text.base in
  match cached_table code mem base cache.tables with
  | tbl -> tbl
  | exception Not_found ->
    let inst = code.Code.code_inst in
    let tbl = new_table code mem base cache.stats in
    cache.tables <-
      ((code.Code.code_oid, inst), tbl)
      :: List.filter
           (fun ((oid, i), _) ->
             not (Int32.equal oid code.Code.code_oid && i = inst))
           cache.tables;
    tbl

(* the drive loop replaces the interpreter's fetch: resolve the PC to a
   path (through [img], the image the last one ran in) and run it until
   it hands back a stop.  [S_jump] is the only re-entry: a dynamic
   transfer whose target needs the text map.  The slice started with
   [fuel] at instruction count [insns0]; closure-free, so a warm slice
   allocates nothing. *)
let rec drive cache ctx mem text (img : Text.image) fuel insns0 =
  let left = fuel - (ctx.M.insns - insns0) in
  if left <= 0 then M.Fuel
  else begin
    let pc = ctx.M.pc in
    let img = M.image_at text img pc in
    let tbl = table_for cache ~mem img in
    let idx = Code.index_at img.Text.code (pc - img.Text.base) in
    match enter tbl (path_at tbl idx) ctx left with
    | S_fuel -> M.Fuel
    | S_poll -> M.Poll
    | S_syscall s -> s
    | S_bottom -> M.Bottom_return
    | S_halt -> M.Halt
    | S_jump -> drive cache ctx mem text img fuel insns0
    | S_next -> assert false
  end

let run cache ctx ~mem ~text ~fuel =
  cache.stats.st_slices <- cache.stats.st_slices + 1;
  try drive cache ctx mem text Text.none fuel ctx.M.insns with M.Trapped t -> M.Trap t

(* --- the paths the translator builds, without executing (for
   [emdis --blocks]): translated on a table of their own based at 0,
   from every method entry and every point a thread resumes at (after a
   call or a system call, at a parked poll), each path followed at once
   by the paths of its fall-through and then of its side exits, as
   running it would translate them *)

type path_info = {
  pi_insns : int list;
  pi_exits : int list;
  pi_next : int;
}

let describe_paths (code : Code.t) =
  let mem = Memory.create ~endian:code.Code.arch.Arch.endian ~size:0 in
  let tbl = new_table code mem 0 { st_paths = 0; st_insns = 0; st_slices = 0 } in
  let paths = ref [] in
  let rec from off =
    let h = index_or_none code off in
    if h >= 0 && tbl.t_paths.(h) == no_path then begin
      let p = translate tbl h in
      let exits =
        Array.fold_right
          (fun u acc -> match u with U_bcc (_, pc, _) -> pc :: acc | _ -> acc)
          p.p_ops []
      in
      let insns = Array.fold_right (fun pc acc -> Code.index_at code pc :: acc) p.p_pcs [] in
      paths := { pi_insns = insns; pi_exits = exits; pi_next = p.p_next_pc } :: !paths;
      List.iter from (p.p_next_pc :: exits)
    end
  in
  Array.iter (fun m -> from m.Code.entry_offset) code.Code.methods;
  Array.iteri
    (fun j insn ->
      let off = code.Code.offsets.(j) in
      match insn with
      | Insn.Jsr_ind _ | Insn.Syscall _ -> from (off + code.Code.insn_sizes.(j))
      | Insn.Poll _ -> from off
      | _ -> ())
    code.Code.insns;
  List.rev !paths
