(* the trap and suspension types live in [Suspend]; [run] returns the
   machine-producible subset of the unified suspension type *)
type ctx = {
  arch : Arch.t;
  regs : int array;
  mutable pc : int;
  mutable cc : int;
  mutable poll_requested : bool;
  mutable skip_poll : bool;
  mutable stack_limit : int;
  mutable cycles : int;
  mutable insns : int;
}

exception Trapped of Suspend.trap

let create_ctx arch =
  {
    arch;
    regs = Array.make (Reg.count arch.Arch.family) 0;
    pc = 0;
    cc = 0;
    poll_requested = false;
    skip_poll = false;
    stack_limit = Memory.low_bound;
    cycles = 0;
    insns = 0;
  }

let sparc_g0 = 0

(* renormalise to the sign-extended 32-bit domain the register file
   holds: the low 32 bits survive, bit 31 is copied upwards *)
let sx v = ((v land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000

let reg_int ctx r =
  if ctx.arch.Arch.family = Arch.Sparc && r = sparc_g0 then 0 else ctx.regs.(r)

let set_reg_int ctx r v =
  if ctx.arch.Arch.family = Arch.Sparc && r = sparc_g0 then () else ctx.regs.(r) <- sx v

let reg ctx r = Int32.of_int (reg_int ctx r)
let set_reg ctx r v = set_reg_int ctx r (Int32.to_int v)

(* neither stack nor frame pointer is ever SPARC %g0 *)
let sp ctx = ctx.regs.(Reg.sp ctx.arch.Arch.family)
let set_sp ctx v = ctx.regs.(Reg.sp ctx.arch.Arch.family) <- sx v
let fp ctx = ctx.regs.(Reg.fp ctx.arch.Arch.family)
let set_fp ctx v = ctx.regs.(Reg.fp ctx.arch.Arch.family) <- sx v

let addr_of v =
  let a = v land 0xFFFF_FFFF in
  if a = 0 then raise (Trapped Suspend.Nil_deref) else a

(* the [int32] forms serve the fetch/decode loop's operand access *)
let load mem a =
  try Memory.load32 mem a with Memory.Fault x -> raise (Trapped (Suspend.Mem_fault x))

let store mem a v =
  try Memory.store32 mem a v with Memory.Fault x -> raise (Trapped (Suspend.Mem_fault x))

let load_int mem a =
  try sx (Memory.load32_bits mem a)
  with Memory.Fault x -> raise (Trapped (Suspend.Mem_fault x))

let store_int mem a v =
  try Memory.store32_bits mem a v
  with Memory.Fault x -> raise (Trapped (Suspend.Mem_fault x))

let get_operand ctx mem op =
  match op with
  | Operand.Reg r -> reg ctx r
  | Operand.Imm i -> i
  | Operand.Mem (Operand.Abs a) -> load mem (addr_of (Int32.to_int a))
  | Operand.Mem (Operand.Disp (r, d)) -> load mem (addr_of (reg_int ctx r) + d)
  | Operand.Mem (Operand.Autoinc r) ->
    let a = addr_of (reg_int ctx r) in
    let v = load mem a in
    set_reg_int ctx r (a + 4);
    v
  | Operand.Mem (Operand.Autodec r) ->
    let a = addr_of (reg_int ctx r) - 4 in
    set_reg_int ctx r a;
    load mem a

let set_operand ctx mem op v =
  match op with
  | Operand.Reg r -> set_reg ctx r v
  | Operand.Imm _ -> raise (Trapped (Suspend.Bad_insn "immediate destination"))
  | Operand.Mem (Operand.Abs a) -> store mem (addr_of (Int32.to_int a)) v
  | Operand.Mem (Operand.Disp (r, d)) -> store mem (addr_of (reg_int ctx r) + d) v
  | Operand.Mem (Operand.Autoinc r) ->
    let a = addr_of (reg_int ctx r) in
    store mem a v;
    set_reg_int ctx r (a + 4)
  | Operand.Mem (Operand.Autodec r) ->
    let a = addr_of (reg_int ctx r) - 4 in
    set_reg_int ctx r a;
    store mem a v

let int_binop op a b =
  match op with
  | Insn.Add -> Int32.add a b
  | Insn.Sub -> Int32.sub a b
  | Insn.Mul -> Int32.mul a b
  | Insn.Div -> if Int32.equal b 0l then raise (Trapped Suspend.Div_zero) else Int32.div a b
  | Insn.Mod -> if Int32.equal b 0l then raise (Trapped Suspend.Div_zero) else Int32.rem a b
  | Insn.And -> Int32.logand a b
  | Insn.Or -> Int32.logor a b
  | Insn.Xor -> Int32.logxor a b

let float_binop fmt op a b =
  let decode v =
    try Float_format.decode fmt v
    with Float_format.Reserved_operand m -> raise (Trapped (Suspend.Float_reserved m))
  in
  let x = decode a and y = decode b in
  let r =
    match op with
    | Insn.Add -> x +. y
    | Insn.Sub -> x -. y
    | Insn.Mul -> x *. y
    | Insn.Div -> if y = 0.0 then raise (Trapped Suspend.Div_zero) else x /. y
    | Insn.Mod | Insn.And | Insn.Or | Insn.Xor ->
      raise (Trapped (Suspend.Bad_insn "non-arithmetic float op"))
  in
  try Float_format.encode fmt r
  with Float_format.Reserved_operand m -> raise (Trapped (Suspend.Float_reserved m))

let eval_cc cmp cc =
  match cmp with
  | Insn.Eq -> cc = 0
  | Insn.Ne -> cc <> 0
  | Insn.Lt -> cc < 0
  | Insn.Le -> cc <= 0
  | Insn.Gt -> cc > 0
  | Insn.Ge -> cc >= 0

let push_int ctx mem v =
  let a = sp ctx - 4 in
  set_sp ctx a;
  store_int mem a v;
  if a < ctx.stack_limit then raise (Trapped Suspend.Stack_overflow)

let pop_int ctx mem =
  let a = sp ctx in
  let v = load_int mem a in
  set_sp ctx (a + 4);
  v

let check_stack ctx =
  if sp ctx < ctx.stack_limit then raise (Trapped Suspend.Stack_overflow)

(* SPARC window registers *)
let l_base = 16
let i_base = 24
let o_base = 8

let sparc_save ctx mem size =
  let regs = ctx.regs in
  let old_sp = sp ctx in
  let new_sp = old_sp - 64 - size in
  (* spill the caller's %l and %i window below the new stack pointer *)
  for k = 0 to 7 do
    store_int mem (new_sp + (4 * k)) regs.(l_base + k);
    store_int mem (new_sp + 32 + (4 * k)) regs.(i_base + k)
  done;
  (* window shift: %i <- %o; %i6 becomes the caller's SP, i.e. our FP *)
  Array.blit regs o_base regs i_base 8;
  set_sp ctx new_sp;
  check_stack ctx

(* window shift first, in place: %o <- %i, so %o6 = old %i6 = caller SP
   and the stack is popped; then reload the spilled %l and %i window.  A
   fault mid-reload (fatal to the thread) leaves the shift done. *)
let sparc_restore ctx mem =
  let regs = ctx.regs in
  let cur_sp = sp ctx in
  Array.blit regs i_base regs o_base 8;
  for k = 0 to 7 do
    regs.(l_base + k) <- load_int mem (cur_sp + (4 * k));
    regs.(i_base + k) <- load_int mem (cur_sp + 32 + (4 * k))
  done

let image_at text (img : Text.image) pc =
  if pc >= img.Text.base && pc < img.Text.base + img.Text.code.Code.byte_size then img
  else begin
    let img = Text.find text pc in
    if img == Text.none then raise (Trapped (Suspend.Bad_pc pc));
    img
  end

let run ctx ~mem ~text ~fuel =
  let family = ctx.arch.Arch.family in
  let fmt = ctx.arch.Arch.float_format in
  let last = ref Text.none in
  (* direct-style hot loop: each arm tail-calls [exec] with the fuel it
     has left or returns its stop reason outright, so a slice costs no
     result/fuel refs, no closures, and no per-instruction stop check *)
  let rec exec fuel =
    if fuel <= 0 then Suspend.Fuel
    else begin
      let img = image_at text !last ctx.pc in
      last := img;
      let base = img.Text.base in
      let code = img.Text.code in
      let idx = Code.index_at code (ctx.pc - base) in
      let insn = code.Code.insns.(idx) in
      let next_pc = ctx.pc + code.Code.insn_sizes.(idx) in
      ctx.cycles <- ctx.cycles + code.Code.insn_cycles.(idx);
      ctx.insns <- ctx.insns + 1;
      match insn with
      | Insn.Mov (a, b) ->
        set_operand ctx mem b (get_operand ctx mem a);
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Bin3 (op, a, b, c) ->
        set_operand ctx mem c
          (int_binop op (get_operand ctx mem a) (get_operand ctx mem b));
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Bin2 (op, a, b) ->
        let v = int_binop op (get_operand ctx mem b) (get_operand ctx mem a) in
        set_operand ctx mem b v;
        ctx.cc <- Int32.compare v 0l;
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Fbin3 (op, a, b, c) ->
        set_operand ctx mem c
          (float_binop fmt op (get_operand ctx mem a) (get_operand ctx mem b));
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Fbin2 (op, a, b) ->
        set_operand ctx mem b
          (float_binop fmt op (get_operand ctx mem b) (get_operand ctx mem a));
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Neg (a, b) ->
        set_operand ctx mem b (Int32.neg (get_operand ctx mem a));
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Fneg (a, b) ->
        set_operand ctx mem b
          (float_binop fmt Insn.Sub
             (Float_format.encode fmt 0.0)
             (get_operand ctx mem a));
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Cvt_if (a, b) ->
        set_operand ctx mem b
          (Float_format.encode fmt (Int32.to_float (get_operand ctx mem a)));
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Cvt_fi (a, b) ->
        let f =
          try Float_format.decode fmt (get_operand ctx mem a)
          with Float_format.Reserved_operand m -> raise (Trapped (Suspend.Float_reserved m))
        in
        set_operand ctx mem b (Int32.of_float f);
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Cmp (a, b) ->
        ctx.cc <- Int32.compare (get_operand ctx mem a) (get_operand ctx mem b);
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Fcmp (a, b) ->
        let decode v =
          try Float_format.decode fmt v
          with Float_format.Reserved_operand m -> raise (Trapped (Suspend.Float_reserved m))
        in
        ctx.cc <-
          Float.compare
            (decode (get_operand ctx mem a))
            (decode (get_operand ctx mem b));
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Bcc (c, target) ->
        ctx.pc <- (if eval_cc c ctx.cc then base + target else next_pc);
        exec (fuel - 1)
      | Insn.Br target ->
        ctx.pc <- base + target;
        exec (fuel - 1)
      | Insn.Jmp_abs target ->
        if target = 0 then raise (Trapped (Suspend.Bad_pc 0));
        ctx.pc <- target;
        exec (fuel - 1)
      | Insn.Jsr_ind r ->
        let target = reg_int ctx r in
        if target = 0 then raise (Trapped (Suspend.Bad_pc 0));
        (match family with
        | Arch.Vax | Arch.M68k -> push_int ctx mem next_pc
        | Arch.Sparc -> set_reg_int ctx 15 next_pc);
        ctx.pc <- target;
        exec (fuel - 1)
      | Insn.Push a ->
        push_int ctx mem (Int32.to_int (get_operand ctx mem a));
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Vax_entry size ->
        push_int ctx mem 0;
        (* save mask word *)
        push_int ctx mem (fp ctx);
        set_fp ctx (sp ctx);
        set_sp ctx (sp ctx - size);
        check_stack ctx;
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Vax_ret ->
        set_sp ctx (fp ctx);
        set_fp ctx (pop_int ctx mem);
        let _mask = pop_int ctx mem in
        ret_to (pop_int ctx mem) fuel
      | Insn.Link size ->
        push_int ctx mem (fp ctx);
        set_fp ctx (sp ctx);
        set_sp ctx (sp ctx - size);
        check_stack ctx;
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Unlk ->
        set_sp ctx (fp ctx);
        set_fp ctx (pop_int ctx mem);
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Rts -> ret_to (pop_int ctx mem) fuel
      | Insn.Save size ->
        sparc_save ctx mem size;
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Restore ->
        sparc_restore ctx mem;
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Retl -> ret_to (reg_int ctx 15) fuel
      | Insn.Sethi (i, r) ->
        set_reg ctx r (Int32.shift_left i 10);
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Syscall n -> Suspend.Syscall n
      | Insn.Poll _ ->
        if ctx.skip_poll then begin
          ctx.skip_poll <- false;
          ctx.pc <- next_pc;
          exec (fuel - 1)
        end
        else if ctx.poll_requested then Suspend.Poll
        else begin
          ctx.pc <- next_pc;
          exec (fuel - 1)
        end
      | Insn.Remque (rs, rd) ->
        let sent = addr_of (reg_int ctx rs) in
        let first = load_int mem sent in
        if first = sent then set_reg_int ctx rd 0
        else begin
          let next = load_int mem first in
          store_int mem sent next;
          store_int mem (next + 4) sent;
          set_reg_int ctx rd first
        end;
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Nop ->
        ctx.pc <- next_pc;
        exec (fuel - 1)
      | Insn.Halt -> Suspend.Halt
    end
  and ret_to target fuel =
    if target = 0 then Suspend.Bottom_return
    else begin
      ctx.pc <- target;
      exec (fuel - 1)
    end
  in
  try exec fuel with Trapped t -> Suspend.Trap t

let syscall_resume ctx ~text =
  let img = Text.find text ctx.pc in
  if img == Text.none then invalid_arg "Machine.syscall_resume: PC outside text";
  let idx = Code.index_at img.Text.code (ctx.pc - img.Text.base) in
  let insn = img.Text.code.Code.insns.(idx) in
  ctx.pc <- ctx.pc + Insn.size_bytes ctx.arch.Arch.family insn

let pp_trap = Suspend.pp_trap
let pp_stop ppf s = Suspend.pp ppf s
