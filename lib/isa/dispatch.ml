(* Threaded-dispatch execution: each basic block is translated once, on
   first execution, into a chain of per-instruction closures with every
   operand access, cycle charge and fall-through target specialised at
   translation time — so steady-state execution pays no fetch, no decode
   and no operand match.  The adjacent compare-branch and loop-bottom
   poll-branch pairs the compiler emits are fused into superinstructions.

   Semantics are the fetch/decode interpreter's, bit for bit: the
   closures are built from {!Machine}'s own primitives, replicate its
   (right-to-left) operand evaluation orders with explicit lets, charge
   cycles/insns before the operation, leave the PC at the faulting
   instruction on a trap, and check fuel before every instruction.  A
   run under this engine and a run under [Machine.run] produce the same
   stop, the same context, the same memory and the same counters. *)

module M = Machine

(* why a step returned to the driver; [S_jump] is a dynamic control
   transfer (indirect call, return) whose target must be re-resolved
   through the text map.  No stop carries the fuel left: every step
   spends one unit of fuel per instruction it counts, so the driver
   reads the fuel left off [ctx.insns] *)
type stop =
  | S_fuel
  | S_poll
  | S_syscall of M.stop  (* the [Syscall] stop, built at translation *)
  | S_bottom
  | S_halt
  | S_jump

type step = M.ctx -> int -> stop

type stats = {
  mutable st_blocks : int;  (* straight-line runs translated *)
  mutable st_insns : int;  (* instructions translated *)
  mutable st_fused : int;  (* superinstruction pairs fused *)
  mutable st_slices : int;  (* run slices driven *)
}

type table = {
  t_code : Code.t;
  t_base : int;
  t_mem : Memory.t;  (* validity token: a fresh memory voids the table *)
  t_steps : step option array;  (* per instruction index, filled lazily *)
  t_fused : bool array;  (* instruction heads a fused superinstruction *)
  t_stats : stats;
}

type cache = {
  mutable tables : ((int32 * int) * table) list;
      (* keyed per code instance: (code OID, instance tag) *)
  stats : stats;
}

let create_cache () =
  {
    tables = [];
    stats = { st_blocks = 0; st_insns = 0; st_fused = 0; st_slices = 0 };
  }

let stats c = c.stats

(* Register accesses are fully resolved at translation time: the SPARC
   %g0 special case and the bounds check collapse into the choice of
   closure, so a steady-state access is a single unsafe array read.
   (The interpreter re-decides both per access — including a
   polymorphic compare on the arch family, a C call.)  An out-of-range
   register falls back to {!Machine.reg_int} so malformed code raises the
   same exception the interpreter would. *)
let reg_is_g0 (code : Code.t) r =
  (match code.Code.arch.Arch.family with Arch.Sparc -> true | _ -> false)
  && r = 0

let reg_in_range (code : Code.t) r =
  r >= 0 && r < Reg.count code.Code.arch.Arch.family

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

let int_binop op a b =
  if b = 0 && traps_on_zero op then raise (M.Trapped M.Div_zero) else alu_nz op a b

(* specialise an operand read: the match on the addressing mode happens
   here, once, instead of on every execution *)
let get_c code mem (op : Operand.t) : M.ctx -> int =
  match op with
  | Operand.Reg r when reg_is_g0 code r -> fun _ -> 0
  | Operand.Reg r when reg_in_range code r ->
    fun ctx -> Array.unsafe_get ctx.M.regs r
  | Operand.Reg r -> fun ctx -> M.reg_int ctx r
  | Operand.Imm i ->
    let i = Int32.to_int i in
    fun _ -> i
  | Operand.Mem (Operand.Abs a) ->
    let a = Int32.to_int a in
    fun _ -> M.load_int mem (M.addr_of a)
  | Operand.Mem (Operand.Disp (r, d)) when reg_in_range code r && not (reg_is_g0 code r) ->
    fun ctx -> M.load_int mem (M.addr_of (Array.unsafe_get ctx.M.regs r) + d)
  | Operand.Mem (Operand.Disp (r, d)) ->
    fun ctx -> M.load_int mem (M.addr_of (M.reg_int ctx r) + d)
  | Operand.Mem (Operand.Autoinc r) ->
    fun ctx ->
      let a = M.addr_of (M.reg_int ctx r) in
      let v = M.load_int mem a in
      M.set_reg_int ctx r (a + 4);
      v
  | Operand.Mem (Operand.Autodec r) ->
    fun ctx ->
      let a = M.addr_of (M.reg_int ctx r) - 4 in
      M.set_reg_int ctx r a;
      M.load_int mem a

(* every value a step writes is already sign-extended, so a register
   write is a plain store *)
let set_c code mem (op : Operand.t) : M.ctx -> int -> unit =
  match op with
  | Operand.Reg r when reg_is_g0 code r -> fun _ _ -> ()
  | Operand.Reg r when reg_in_range code r ->
    fun ctx v -> Array.unsafe_set ctx.M.regs r v
  | Operand.Reg r -> fun ctx v -> M.set_reg_int ctx r v
  | Operand.Imm _ ->
    fun _ _ -> raise (M.Trapped (M.Bad_insn "immediate destination"))
  | Operand.Mem (Operand.Abs a) ->
    let a = Int32.to_int a in
    fun _ v -> M.store_int mem (M.addr_of a) v
  | Operand.Mem (Operand.Disp (r, d)) when reg_in_range code r && not (reg_is_g0 code r) ->
    fun ctx v -> M.store_int mem (M.addr_of (Array.unsafe_get ctx.M.regs r) + d) v
  | Operand.Mem (Operand.Disp (r, d)) ->
    fun ctx v -> M.store_int mem (M.addr_of (M.reg_int ctx r) + d) v
  | Operand.Mem (Operand.Autoinc r) ->
    fun ctx v ->
      let a = M.addr_of (M.reg_int ctx r) in
      M.store_int mem a v;
      M.set_reg_int ctx r (a + 4)
  | Operand.Mem (Operand.Autodec r) ->
    fun ctx v ->
      let a = M.addr_of (M.reg_int ctx r) - 4 in
      M.set_reg_int ctx r a;
      M.store_int mem a v

(* the float operations are the only ones that leave the int domain *)
let float_binop fmt op a b =
  Int32.to_int (M.float_binop fmt op (Int32.of_int a) (Int32.of_int b))

let float_decode fmt v =
  try Float_format.decode fmt (Int32.of_int v)
  with Float_format.Reserved_operand m -> raise (M.Trapped (M.Float_reserved m))

(* a step that hands control back to the driver (fall-through off the
   end of an image, or a branch target outside it): the driver redoes
   the text-map lookup exactly as the interpreter's fetch would *)
let escape : step = fun _ fuel -> if fuel <= 0 then S_fuel else S_jump

(* a return pops the sentinel return address 0 at a segment's bottom *)
let[@inline] return_to ctx target =
  if target = 0 then S_bottom
  else begin
    ctx.M.pc <- target;
    S_jump
  end

(* instructions that end a straight-line translation run *)
let is_terminator = function
  | Insn.Bcc _ | Insn.Br _ | Insn.Jmp_abs _ | Insn.Jsr_ind _ | Insn.Vax_ret
  | Insn.Rts | Insn.Retl | Insn.Syscall _ | Insn.Halt -> true
  | Insn.Mov _ | Insn.Bin3 _ | Insn.Bin2 _ | Insn.Fbin3 _ | Insn.Fbin2 _
  | Insn.Neg _ | Insn.Fneg _ | Insn.Cvt_if _ | Insn.Cvt_fi _ | Insn.Cmp _
  | Insn.Fcmp _ | Insn.Push _ | Insn.Vax_entry _ | Insn.Link _ | Insn.Unlk
  | Insn.Save _ | Insn.Restore | Insn.Sethi _ | Insn.Poll _ | Insn.Remque _
  | Insn.Nop -> false

(* can [insns.(i); insns.(i+1)] fuse into one superinstruction?  The two
   codegen hot pairs: compare-then-branch, and the loop-bottom
   poll-then-back-branch. *)
let fusable a b =
  match (a, b) with
  | Insn.Cmp _, Insn.Bcc _ | Insn.Poll _, Insn.Br _ -> true
  | _ -> false

(* --- micro-ops: the register/immediate/frame-slot subset of the ISA
   whose only possible exit is a trap.  A straight-line prefix of these
   runs in one tight match loop straight on the register file — no
   per-instruction closure call, and the fuel, counters and PC settle
   once per batch instead of once per instruction.  A trap mid-batch is
   repaired to exact per-instruction accounting (cycles and insns up to
   and including the faulting op, PC on it) before it propagates; the
   registers already hold exactly the writes of the ops before it.  So
   the batch is observationally identical to the closure chain.

   Register fields are proved in range and never %g0 at classification
   (a %g0 source is folded to the immediate 0, a %g0 destination
   discards), immediates are sign-extended ints, frame slots are
   [(base register, displacement)]. *)
type uop =
  | U_nop
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

(* classify one instruction; [None] ends the micro prefix (memory modes
   with side effects, floats, stack ops, control flow, polls — anything
   that can exit other than by trapping, or that the loop doesn't
   inline) *)
let uop_of (code : Code.t) j : uop option =
  let g0 r = reg_is_g0 code r in
  let ok r = reg_in_range code r && not (g0 r) in
  let src = function
    | Operand.Reg r when g0 r -> Some (`I 0)
    | Operand.Reg r when ok r -> Some (`R r)
    | Operand.Imm i -> Some (`I (Int32.to_int i))
    | Operand.Mem (Operand.Disp (r, d)) when ok r -> Some (`S (r, d))
    | _ -> None
  in
  let dst = function
    | Operand.Reg r when g0 r -> Some `D
    | Operand.Reg r when ok r -> Some (`R r)
    | Operand.Mem (Operand.Disp (r, d)) when ok r -> Some (`S (r, d))
    | _ -> None
  in
  match code.Code.insns.(j) with
  | Insn.Mov (a, b) ->
    (match (src a, dst b) with
    | Some (`R rs), Some (`R rd) -> Some (U_mov_rr (rs, rd))
    | Some (`I v), Some (`R rd) -> Some (U_mov_ir (v, rd))
    | Some (`S (rb, d)), Some (`R rd) -> Some (U_mov_mr (rb, d, rd))
    | Some (`R rs), Some (`S (rb, d)) -> Some (U_mov_rm (rs, rb, d))
    | Some (`I v), Some (`S (rb, d)) -> Some (U_mov_im (v, rb, d))
    | Some (`S (sb, sd)), Some (`S (db, dd)) -> Some (U_mov_mm (sb, sd, db, dd))
    | Some (`S (rb, d)), Some `D -> Some (U_mov_md (rb, d))
    | Some (`R _ | `I _), Some `D -> Some U_nop
    | _ -> None)
  | Insn.Bin3 (op, a, b, c) ->
    (match (src a, src b, dst c) with
    | Some (`R ra), Some (`R rb), Some (`R rd) -> Some (U_bin3 (op, ra, rb, rd))
    | Some (`R ra), Some (`I ib), Some (`R rd) -> Some (U_bin3_i (op, ra, ib, rd))
    | _ -> None)
  | Insn.Bin2 (op, a, b) ->
    (match (src a, dst b) with
    | Some (`R rs), Some (`R rd) -> Some (U_bin2 (op, rs, rd))
    | Some (`I ia), Some (`R rd) -> Some (U_bin2_i (op, ia, rd))
    | _ -> None)
  | Insn.Cmp (a, b) ->
    (match (src a, src b) with
    | Some (`R ra), Some (`R rb) -> Some (U_cmp_rr (ra, rb))
    | Some (`R ra), Some (`I ib) -> Some (U_cmp_ri (ra, ib))
    | Some (`I ia), Some (`R rb) -> Some (U_cmp_ir (ia, rb))
    | Some (`I ia), Some (`I ib) -> Some (U_cc_const (sign_cmp ia ib))
    | _ -> None)
  | Insn.Neg (a, b) ->
    (match (src a, dst b) with
    | Some (`R ra), Some (`R rd) -> Some (U_neg (ra, rd))
    | Some (`I ia), Some (`R rd) -> Some (U_mov_ir (sx (-ia), rd))
    | _ -> None)
  | Insn.Sethi (i, r) ->
    if ok r then Some (U_mov_ir (Int32.to_int (Int32.shift_left i 10), r))
    else if g0 r then Some U_nop
    else None
  | Insn.Nop -> Some U_nop
  | _ -> None

(* a batching superblock pays for itself from three micro-ops on *)
let min_batch = 3

(* the micro-ops heading [first..last]: the longest prefix [uop_of]
   classifies, each instruction classified once *)
let micro_prefix code first last =
  let rec scan j acc =
    match if j <= last then uop_of code j else None with
    | Some u -> scan (j + 1) (u :: acc)
    | None -> Array.of_list (List.rev acc)
  in
  scan first []

(* a batch: the micro-ops of the instructions [bt_idx..] of one table *)
type batch = {
  bt_code : Code.t;
  bt_mem : Memory.t;
  bt_base : int;
  bt_idx : int;
  bt_uops : uop array;
}

(* a trap at micro-op [m]: charge cycles and insns up to and including
   it and rest the PC on it; the registers already hold exactly the
   writes of the ops before it *)
let batch_fault bt (ctx : M.ctx) m t =
  let code = bt.bt_code in
  let cyc = ref 0 in
  for k = bt.bt_idx to bt.bt_idx + m do
    cyc := !cyc + code.Code.insn_cycles.(k)
  done;
  ctx.M.cycles <- ctx.M.cycles + !cyc;
  ctx.M.insns <- ctx.M.insns + m + 1;
  ctx.M.pc <- bt.bt_base + code.Code.offsets.(bt.bt_idx + m);
  raise (M.Trapped t)

(* a frame-slot address: [addr_of]'s mask-and-nil check and {!Memory}'s
   own bounds test, inlined so a fault is attributed to its micro-op *)
let[@inline] slot bt ctx (regs : int array) i b d =
  let a = Array.unsafe_get regs b land 0xFFFF_FFFF in
  if a = 0 then batch_fault bt ctx i M.Nil_deref;
  let a = a + d in
  if a < Memory.low_bound || a + 4 > Memory.size bt.bt_mem then
    batch_fault bt ctx i (M.Mem_fault a);
  a

let[@inline] alu bt ctx i op a b =
  if b = 0 && traps_on_zero op then batch_fault bt ctx i M.Div_zero
  else alu_nz op a b

(* one pass of the batch's tight loop, straight on the register file *)
let run_batch bt ctx (regs : int array) =
  let uops = bt.bt_uops and mem = bt.bt_mem in
  for i = 0 to Array.length uops - 1 do
    match Array.unsafe_get uops i with
    | U_nop -> ()
    | U_mov_rr (s, d) -> Array.unsafe_set regs d (Array.unsafe_get regs s)
    | U_mov_ir (v, d) -> Array.unsafe_set regs d v
    | U_mov_mr (b, o, d) ->
      let a = slot bt ctx regs i b o in
      Array.unsafe_set regs d (sx (Memory.unsafe_load32_bits mem a))
    | U_mov_md (b, o) -> ignore (Memory.unsafe_load32_bits mem (slot bt ctx regs i b o))
    | U_mov_rm (s, b, o) ->
      Memory.unsafe_store32_bits mem (slot bt ctx regs i b o) (Array.unsafe_get regs s)
    | U_mov_im (v, b, o) -> Memory.unsafe_store32_bits mem (slot bt ctx regs i b o) v
    | U_mov_mm (sb, so, db, dox) ->
      let v = Memory.unsafe_load32_bits mem (slot bt ctx regs i sb so) in
      Memory.unsafe_store32_bits mem (slot bt ctx regs i db dox) v
    | U_neg (s, d) -> Array.unsafe_set regs d (sx (-Array.unsafe_get regs s))
    | U_bin3 (op, a, b, d) ->
      Array.unsafe_set regs d
        (alu bt ctx i op (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | U_bin3_i (op, a, k, d) ->
      Array.unsafe_set regs d (alu bt ctx i op (Array.unsafe_get regs a) k)
    | U_bin2 (op, s, d) ->
      let v = alu bt ctx i op (Array.unsafe_get regs d) (Array.unsafe_get regs s) in
      Array.unsafe_set regs d v;
      ctx.M.cc <- sign_cmp v 0
    | U_bin2_i (op, k, d) ->
      let v = alu bt ctx i op (Array.unsafe_get regs d) k in
      Array.unsafe_set regs d v;
      ctx.M.cc <- sign_cmp v 0
    | U_cmp_rr (a, b) ->
      ctx.M.cc <- sign_cmp (Array.unsafe_get regs a) (Array.unsafe_get regs b)
    | U_cmp_ri (a, k) -> ctx.M.cc <- sign_cmp (Array.unsafe_get regs a) k
    | U_cmp_ir (k, b) -> ctx.M.cc <- sign_cmp k (Array.unsafe_get regs b)
    | U_cc_const c -> ctx.M.cc <- c
  done

(* the batching superblock for the head slot of a run whose prefix
   [idx..] is the micro-ops [uops].  With fuel for the whole prefix it
   runs the tight loop and settles counters, fuel and PC once; short on
   fuel it falls back to [slow], the per-instruction chain, which stops
   at the exact instruction the interpreter would. *)
let micro_wrap (tbl : table) idx uops ~(slow : step) ~(after : step) : step =
  let code = tbl.t_code in
  let bt =
    { bt_code = code; bt_mem = tbl.t_mem; bt_base = tbl.t_base; bt_idx = idx;
      bt_uops = uops }
  in
  let plen = Array.length uops in
  let last = idx + plen - 1 in
  let total_cyc = ref 0 in
  for k = idx to last do
    total_cyc := !total_cyc + code.Code.insn_cycles.(k)
  done;
  let total_cyc = !total_cyc in
  let end_pc = tbl.t_base + code.Code.offsets.(last) + code.Code.insn_sizes.(last) in
  fun ctx fuel ->
    if fuel < plen then slow ctx fuel
    else begin
      run_batch bt ctx ctx.M.regs;
      ctx.M.cycles <- ctx.M.cycles + total_cyc;
      ctx.M.insns <- ctx.M.insns + plen;
      ctx.M.pc <- end_pc;
      after ctx (fuel - plen)
    end

let rec step_at tbl idx =
  match tbl.t_steps.(idx) with
  | Some s -> s
  | None ->
    compile_run tbl idx;
    (match tbl.t_steps.(idx) with Some s -> s | None -> assert false)

(* continuation for a static branch target: resolved (and its block
   translated) on first execution, memoized after — the fuel check comes
   first, as the interpreter checks fuel before re-fetching *)
and cont_at tbl off : step =
  if off < 0 || off >= tbl.t_code.Code.byte_size then escape
  else begin
    let memo = ref None in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        match !memo with
        | Some s -> s ctx fuel
        | None ->
          let s = step_at tbl (Code.index_at tbl.t_code off) in
          memo := Some s;
          s ctx fuel
      end
  end

(* translate the straight-line run starting at [idx]: forward to the
   first terminator or already-translated instruction, then backwards so
   each closure references its successor directly *)
and compile_run tbl idx =
  let code = tbl.t_code in
  let insns = code.Code.insns in
  let n = Array.length insns in
  let rec extent j =
    if j >= n || tbl.t_steps.(j) <> None then j - 1
    else if is_terminator insns.(j) then j
    else extent (j + 1)
  in
  let last = extent idx in
  let after =
    if last + 1 >= n then escape
    else
      match tbl.t_steps.(last + 1) with
      | Some s -> s
      | None -> cont_at tbl code.Code.offsets.(last + 1)
  in
  let st = tbl.t_stats in
  st.st_blocks <- st.st_blocks + 1;
  st.st_insns <- st.st_insns + (last - idx + 1);
  let next = ref after in
  for j = last downto idx do
    let s =
      if j < last && fusable insns.(j) insns.(j + 1) then begin
        st.st_fused <- st.st_fused + 1;
        tbl.t_fused.(j) <- true;
        compile_fused tbl j
      end
      else compile_step tbl j ~next:!next
    in
    tbl.t_steps.(j) <- Some s;
    next := s
  done;
  (* a long-enough micro-translatable prefix earns a batching superblock
     in the head slot; branch targets landing mid-run still hit their
     per-instruction steps, and the per-instruction head survives as the
     low-fuel path *)
  let uops = micro_prefix code idx last in
  let plen = Array.length uops in
  if plen >= min_batch then begin
    let slow =
      match tbl.t_steps.(idx) with Some s -> s | None -> assert false
    in
    let after_b =
      if idx + plen <= last then
        match tbl.t_steps.(idx + plen) with Some s -> s | None -> assert false
      else after
    in
    tbl.t_steps.(idx) <- Some (micro_wrap tbl idx uops ~slow ~after:after_b)
  end

(* one instruction, continuation [next]; mirrors the interpreter arm for
   arm, with the interpreter's right-to-left argument evaluation made
   explicit.  On entry the PC is at this instruction (so a trap leaves
   it there); the PC advances after the operation, before [next]. *)
and compile_step tbl j ~next : step =
  let code = tbl.t_code in
  let mem = tbl.t_mem in
  let base = tbl.t_base in
  let pc0 = base + code.Code.offsets.(j) in
  let next_pc = pc0 + code.Code.insn_sizes.(j) in
  let cyc = code.Code.insn_cycles.(j) in
  match code.Code.insns.(j) with
  (* register-to-register and immediate-to-register moves are frequent
     enough as one-instruction blocks (branch interstices) to deserve
     closures with no inner operand calls *)
  | Insn.Mov (Operand.Imm v, Operand.Reg rd)
    when reg_in_range code rd && not (reg_is_g0 code rd) ->
    let v = Int32.to_int v in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        Array.unsafe_set ctx.M.regs rd v;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Mov (Operand.Reg rs, Operand.Reg rd)
    when reg_in_range code rs && not (reg_is_g0 code rs)
         && reg_in_range code rd && not (reg_is_g0 code rd) ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        Array.unsafe_set ctx.M.regs rd (Array.unsafe_get ctx.M.regs rs);
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Mov (a, b) ->
    let ga = get_c code mem a and sb = set_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let v = ga ctx in
        sb ctx v;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Bin3 (op, a, b, c) ->
    let ga = get_c code mem a and gb = get_c code mem b and sc = set_c code mem c in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let vb = gb ctx in
        let va = ga ctx in
        sc ctx (int_binop op va vb);
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Bin2 (op, a, b) ->
    let ga = get_c code mem a and gb = get_c code mem b and sb = set_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let va = ga ctx in
        let vb = gb ctx in
        let v = int_binop op vb va in
        sb ctx v;
        ctx.M.cc <- sign_cmp v 0;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Fbin3 (op, a, b, c) ->
    let ga = get_c code mem a and gb = get_c code mem b and sc = set_c code mem c in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let vb = gb ctx in
        let va = ga ctx in
        sc ctx (float_binop ctx.M.arch.Arch.float_format op va vb);
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Fbin2 (op, a, b) ->
    let ga = get_c code mem a and gb = get_c code mem b and sb = set_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let va = ga ctx in
        let vb = gb ctx in
        sb ctx (float_binop ctx.M.arch.Arch.float_format op vb va);
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Neg (a, b) ->
    let ga = get_c code mem a and sb = set_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let va = ga ctx in
        sb ctx (sx (-va));
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Fneg (a, b) ->
    let ga = get_c code mem a and sb = set_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let fmt = ctx.M.arch.Arch.float_format in
        let va = ga ctx in
        let zero = Int32.to_int (Float_format.encode fmt 0.0) in
        sb ctx (float_binop fmt Insn.Sub zero va);
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Cvt_if (a, b) ->
    let ga = get_c code mem a and sb = set_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let va = ga ctx in
        sb ctx
          (Int32.to_int
             (Float_format.encode ctx.M.arch.Arch.float_format (Float.of_int va)));
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Cvt_fi (a, b) ->
    let ga = get_c code mem a and sb = set_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let va = ga ctx in
        let f = float_decode ctx.M.arch.Arch.float_format va in
        sb ctx (Int32.to_int (Int32.of_float f));
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Cmp (a, b) ->
    let ga = get_c code mem a and gb = get_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let vb = gb ctx in
        let va = ga ctx in
        ctx.M.cc <- sign_cmp va vb;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Fcmp (a, b) ->
    let ga = get_c code mem a and gb = get_c code mem b in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let fmt = ctx.M.arch.Arch.float_format in
        let vb = gb ctx in
        let yb = float_decode fmt vb in
        let va = ga ctx in
        let ya = float_decode fmt va in
        ctx.M.cc <- Float.compare ya yb;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Bcc (c, target) ->
    let taken = cont_at tbl target in
    let tpc = base + target in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        if M.eval_cc c ctx.M.cc then begin
          ctx.M.pc <- tpc;
          taken ctx (fuel - 1)
        end
        else begin
          ctx.M.pc <- next_pc;
          next ctx (fuel - 1)
        end
      end
  | Insn.Br target ->
    let taken = cont_at tbl target in
    let tpc = base + target in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        ctx.M.pc <- tpc;
        taken ctx (fuel - 1)
      end
  | Insn.Jmp_abs target ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        if target = 0 then raise (M.Trapped (M.Bad_pc 0));
        ctx.M.pc <- target;
        S_jump
      end
  | Insn.Jsr_ind r ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let target = M.reg_int ctx r in
        if target = 0 then raise (M.Trapped (M.Bad_pc 0));
        (match ctx.M.arch.Arch.family with
        | Arch.Vax | Arch.M68k -> M.push_int ctx mem next_pc
        | Arch.Sparc -> M.set_reg_int ctx 15 next_pc);
        ctx.M.pc <- target;
        S_jump
      end
  | Insn.Push a ->
    let ga = get_c code mem a in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let va = ga ctx in
        M.push_int ctx mem va;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Vax_entry size ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        M.push_int ctx mem 0;
        M.push_int ctx mem (M.fp ctx);
        M.set_fp ctx (M.sp ctx);
        M.set_sp ctx (M.sp ctx - size);
        M.check_stack ctx;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Vax_ret ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        M.set_sp ctx (M.fp ctx);
        M.set_fp ctx (M.pop_int ctx mem);
        let _mask = M.pop_int ctx mem in
        let target = M.pop_int ctx mem in
        return_to ctx target
      end
  | Insn.Link size ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        M.push_int ctx mem (M.fp ctx);
        M.set_fp ctx (M.sp ctx);
        M.set_sp ctx (M.sp ctx - size);
        M.check_stack ctx;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Unlk ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        M.set_sp ctx (M.fp ctx);
        M.set_fp ctx (M.pop_int ctx mem);
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Rts ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let target = M.pop_int ctx mem in
        return_to ctx target
      end
  | Insn.Save size ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        M.sparc_save ctx mem size;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Restore ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        M.sparc_restore ctx mem;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Retl ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let target = M.reg_int ctx 15 in
        return_to ctx target
      end
  | Insn.Sethi (i, r) ->
    let v = Int32.to_int (Int32.shift_left i 10) in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        M.set_reg_int ctx r v;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Syscall n ->
    let stop = S_syscall (M.Syscall n) in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        stop
      end
  | Insn.Poll _ ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        if ctx.M.skip_poll then begin
          ctx.M.skip_poll <- false;
          ctx.M.pc <- next_pc;
          next ctx (fuel - 1)
        end
        else if ctx.M.poll_requested then S_poll
        else begin
          ctx.M.pc <- next_pc;
          next ctx (fuel - 1)
        end
      end
  | Insn.Remque (rs, rd) ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        let sent = M.addr_of (M.reg_int ctx rs) in
        let first = M.load_int mem sent in
        if first = sent then M.set_reg_int ctx rd 0
        else begin
          let nxt = M.load_int mem first in
          M.store_int mem sent nxt;
          M.store_int mem (nxt + 4) sent;
          M.set_reg_int ctx rd first
        end;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Nop ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        ctx.M.pc <- next_pc;
        next ctx (fuel - 1)
      end
  | Insn.Halt ->
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc;
        ctx.M.insns <- ctx.M.insns + 1;
        S_halt
      end

(* the fused superinstructions.  Fidelity note: when fuel runs out
   between the two halves, the first half has executed and the PC rests
   on the second instruction — exactly the state the interpreter leaves.
   Landing directly on the second instruction (a branch target) takes
   that instruction's own unfused step; the fused closure occupies only
   the first instruction's slot. *)
and compile_fused tbl j : step =
  let code = tbl.t_code in
  let mem = tbl.t_mem in
  let base = tbl.t_base in
  let pc1 = base + code.Code.offsets.(j + 1) in
  let next_pc1 = pc1 + code.Code.insn_sizes.(j + 1) in
  let cyc0 = code.Code.insn_cycles.(j) in
  let cyc1 = code.Code.insn_cycles.(j + 1) in
  match (code.Code.insns.(j), code.Code.insns.(j + 1)) with
  | Insn.Cmp (a, b), Insn.Bcc (c, target) ->
    let taken = cont_at tbl target in
    let fall = cont_at tbl (code.Code.offsets.(j + 1) + code.Code.insn_sizes.(j + 1)) in
    let tpc = base + target in
    (* the compare sources are almost always registers or immediates;
       resolving them here turns the hottest superinstruction into one
       closure with no inner calls *)
    let src op =
      match op with
      | Operand.Reg r when reg_is_g0 code r -> Some (`I 0)
      | Operand.Reg r when reg_in_range code r -> Some (`R r)
      | Operand.Imm i -> Some (`I (Int32.to_int i))
      | _ -> None
    in
    (match (src a, src b) with
    | Some sa, Some sb ->
      fun ctx fuel ->
        if fuel <= 0 then S_fuel
        else begin
          ctx.M.cycles <- ctx.M.cycles + cyc0;
          ctx.M.insns <- ctx.M.insns + 1;
          let regs = ctx.M.regs in
          let ia = match sa with `R r -> Array.unsafe_get regs r | `I i -> i
          and ib = match sb with `R r -> Array.unsafe_get regs r | `I i -> i in
          ctx.M.cc <- sign_cmp ia ib;
          ctx.M.pc <- pc1;
          if fuel = 1 then S_fuel
          else begin
            ctx.M.cycles <- ctx.M.cycles + cyc1;
            ctx.M.insns <- ctx.M.insns + 1;
            if M.eval_cc c ctx.M.cc then begin
              ctx.M.pc <- tpc;
              taken ctx (fuel - 2)
            end
            else begin
              ctx.M.pc <- next_pc1;
              fall ctx (fuel - 2)
            end
          end
        end
    | _ ->
      let ga = get_c code mem a and gb = get_c code mem b in
      fun ctx fuel ->
        if fuel <= 0 then S_fuel
        else begin
          ctx.M.cycles <- ctx.M.cycles + cyc0;
          ctx.M.insns <- ctx.M.insns + 1;
          let vb = gb ctx in
          let va = ga ctx in
          ctx.M.cc <- sign_cmp va vb;
          ctx.M.pc <- pc1;
          if fuel = 1 then S_fuel
          else begin
            ctx.M.cycles <- ctx.M.cycles + cyc1;
            ctx.M.insns <- ctx.M.insns + 1;
            if M.eval_cc c ctx.M.cc then begin
              ctx.M.pc <- tpc;
              taken ctx (fuel - 2)
            end
            else begin
              ctx.M.pc <- next_pc1;
              fall ctx (fuel - 2)
            end
          end
        end)
  | Insn.Poll _, Insn.Br target ->
    let taken = cont_at tbl target in
    let tpc = base + target in
    let through ctx fuel =
      ctx.M.pc <- pc1;
      if fuel = 1 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc1;
        ctx.M.insns <- ctx.M.insns + 1;
        ctx.M.pc <- tpc;
        taken ctx (fuel - 2)
      end
    in
    fun ctx fuel ->
      if fuel <= 0 then S_fuel
      else begin
        ctx.M.cycles <- ctx.M.cycles + cyc0;
        ctx.M.insns <- ctx.M.insns + 1;
        if ctx.M.skip_poll then begin
          ctx.M.skip_poll <- false;
          through ctx fuel
        end
        else if ctx.M.poll_requested then S_poll
        else through ctx fuel
      end
  | _ -> assert false

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
    let n = Array.length code.Code.insns in
    let tbl =
      {
        t_code = code;
        t_base = base;
        t_mem = mem;
        t_steps = Array.make n None;
        t_fused = Array.make n false;
        t_stats = cache.stats;
      }
    in
    cache.tables <-
      ((code.Code.code_oid, inst), tbl)
      :: List.filter
           (fun ((oid, i), _) ->
             not (Int32.equal oid code.Code.code_oid && i = inst))
           cache.tables;
    tbl

(* the drive loop replaces the interpreter's fetch: resolve the PC to a
   translated step (through [img], the image the last one ran in) and
   let the closure chain run until it hands back a stop.  [S_jump] is
   the only re-entry: a dynamic transfer whose target needs the text
   map.  The slice started with [fuel] at instruction count [insns0];
   closure-free, so a warm slice allocates nothing. *)
let rec drive cache ctx mem text (img : Text.image) fuel insns0 =
  let left = fuel - (ctx.M.insns - insns0) in
  if left <= 0 then M.Fuel
  else begin
    let pc = ctx.M.pc in
    let img = M.image_at text img pc in
    let tbl = table_for cache ~mem img in
    let idx = Code.index_at img.Text.code (pc - img.Text.base) in
    match (step_at tbl idx) ctx left with
    | S_fuel -> M.Fuel
    | S_poll -> M.Poll
    | S_syscall s -> s
    | S_bottom -> M.Bottom_return
    | S_halt -> M.Halt
    | S_jump -> drive cache ctx mem text img fuel insns0
  end

let run cache ctx ~mem ~text ~fuel =
  cache.stats.st_slices <- cache.stats.st_slices + 1;
  try drive cache ctx mem text Text.none fuel ctx.M.insns with
  | M.Trapped t -> M.Trap t
  (* micro-ops go to [Memory] raw; the interpreter wraps at the access
     site, we wrap here — same [Trap] either way *)
  | Memory.Fault x -> M.Trap (M.Mem_fault x)

(* --- static block partition (for [emdis --blocks] and the tests): the
   leaders are method entries, branch targets, and terminator
   successors; fusion heads are the pairs the translator would fuse,
   and the batch is the micro-op prefix it would run as one superblock *)

type block = {
  b_first : int;  (* instruction index of the leader *)
  b_last : int;  (* inclusive *)
  b_fused : int list;  (* indices heading a fused superinstruction *)
  b_batch : int;  (* micro-op batch heading the block; 0 when none *)
}

let describe_blocks (code : Code.t) =
  let insns = code.Code.insns in
  let n = Array.length insns in
  if n = 0 then []
  else begin
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iter
      (fun m ->
        leader.(Code.index_at code m.Code.entry_offset) <- true)
      code.Code.methods;
    Array.iteri
      (fun i insn ->
        (match insn with
        | Insn.Bcc (_, t) | Insn.Br t ->
          (* branch targets inside this image start a block *)
          (match Code.index_at code t with
          | idx -> leader.(idx) <- true
          | exception Invalid_argument _ -> ())
        | _ -> ());
        if is_terminator insn && i + 1 < n then leader.(i + 1) <- true)
      insns;
    let blocks = ref [] in
    let start = ref 0 in
    for i = 0 to n - 1 do
      if i + 1 >= n || leader.(i + 1) || is_terminator insns.(i) then begin
        let first = !start in
        let fused = ref [] in
        for j = i - 1 downto first do
          if fusable insns.(j) insns.(j + 1) then fused := j :: !fused
        done;
        let plen = Array.length (micro_prefix code first i) in
        let b_batch = if plen >= min_batch then plen else 0 in
        blocks := { b_first = first; b_last = i; b_fused = !fused; b_batch } :: !blocks;
        start := i + 1
      end
    done;
    List.rev !blocks
  end
