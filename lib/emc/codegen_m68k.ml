module A = Isa.Arch
module R = Isa.Reg
module I = Isa.Insn
module O = Isa.Operand
module E = Codegen_common.Emitter

let fp = R.fp A.M68k (* A6 *)
let sp = R.sp A.M68k (* A7 *)
let d0 = 0

let operand (l : Codegen_common.loc) : O.t =
  match l with
  | Codegen_common.Lreg r -> O.Reg r
  | Codegen_common.Limm v -> O.Imm v
  | Codegen_common.Lslot off -> O.Mem (O.Disp (fp, off))

let is_mem = function
  | Codegen_common.Lslot _ -> true
  | Codegen_common.Lreg _ | Codegen_common.Limm _ -> false

module Family : Codegen_common.FAMILY = struct
  let family = A.M68k
  let frame_size ~n_slots ~n_scratch = 4 * (n_slots + n_scratch)

  (* slots grow upward from the deep end of the frame: slot 0 sits at the
     lowest address — the reverse of the VAX layout *)
  let slot_offset ~n_slots s = -4 * (n_slots - s)
  let scratch_offset ~n_slots ~n_scratch:_ s = -4 * (n_slots + s + 1)
  let fixed_sp_depth ~frame_size = frame_size
  let arg_push_bytes n = 4 * n
  let retval_reg = d0

  (* frame: [A6]=saved A6, [A6+4]=return address, [A6+8]=self, ... *)
  let prologue em ~frame_size ~param_offsets =
    ignore (E.emit em (I.Link frame_size));
    Array.iteri
      (fun i off ->
        ignore
          (E.emit em (I.Mov (O.Mem (O.Disp (fp, 8 + (4 * i))), O.Mem (O.Disp (fp, off))))))
      param_offsets

  let epilogue em ~result_offset =
    (match result_offset with
    | Some off -> ignore (E.emit em (I.Mov (O.Mem (O.Disp (fp, off)), O.Reg d0)))
    | None -> ());
    ignore (E.emit em I.Unlk);
    ignore (E.emit em I.Rts)

  let load em ~dst ~src = ignore (E.emit em (I.Mov (operand src, O.Reg dst)))
  let store em ~src ~off = ignore (E.emit em (I.Mov (O.Reg src, O.Mem (O.Disp (fp, off)))))

  let store_loc em ~src ~off ~scratch:_ =
    (* MOVE allows memory-to-memory *)
    ignore (E.emit em (I.Mov (operand src, O.Mem (O.Disp (fp, off)))))

  let load_mem em ~dst ~base ~disp =
    ignore (E.emit em (I.Mov (O.Mem (O.Disp (base, disp)), O.Reg dst)))

  let store_mem em ~src ~base ~disp =
    ignore (E.emit em (I.Mov (O.Reg src, O.Mem (O.Disp (base, disp)))))

  (* two-address arithmetic: dst <- dst op src, dst in a register here *)
  let bin em op ~ty ~a ~b ~dst ~scratch:_ =
    load em ~dst ~src:a;
    match ty with
    | Ir.Aint -> ignore (E.emit em (I.Bin2 (op, operand b, O.Reg dst)))
    | Ir.Areal -> ignore (E.emit em (I.Fbin2 (op, operand b, O.Reg dst)))

  let neg em ~ty ~a ~dst ~scratch:_ =
    match ty with
    | Ir.Aint -> ignore (E.emit em (I.Neg (operand a, O.Reg dst)))
    | Ir.Areal -> ignore (E.emit em (I.Fneg (operand a, O.Reg dst)))

  let cvt_int_real em ~a ~dst ~scratch:_ =
    ignore (E.emit em (I.Cvt_if (operand a, O.Reg dst)))

  let cmp em ~ty ~a ~b ~scratch =
    (* CMP allows at most one memory operand *)
    let a, b =
      if is_mem a && is_mem b then begin
        let r = scratch () in
        load em ~dst:r ~src:a;
        (Codegen_common.Lreg r, b)
      end
      else (a, b)
    in
    match ty with
    | Ir.Aint -> ignore (E.emit em (I.Cmp (operand a, operand b)))
    | Ir.Areal -> ignore (E.emit em (I.Fcmp (operand a, operand b)))

  let push em l = ignore (E.emit em (I.Mov (operand l, O.Mem (O.Autodec sp))))

  let invoke em ~target ~args ~method_index ~scratch =
    let rt = scratch () in
    load em ~dst:rt ~src:target;
    List.iter (fun a -> push em a) (List.rev args);
    push em (Codegen_common.Lreg rt);
    let rf = scratch () in
    ignore (E.emit em (I.Mov (O.Mem (O.Disp (rt, Layout.obj_flags)), O.Reg rf)));
    (* AND sets the condition codes on the M68k *)
    ignore
      (E.emit em (I.Bin2 (I.And, O.Imm (Int32.of_int Layout.flag_resident), O.Reg rf)));
    let l_local = E.fresh_label em and l_ret = E.fresh_label em in
    E.branch em (Some I.Ne) l_local;
    let alt_idx = E.emit em (I.Syscall Sysno.sys_invoke) in
    E.branch em None l_ret;
    E.place em l_local;
    ignore (E.emit em (I.Mov (O.Mem (O.Disp (rt, Layout.obj_desc)), O.Reg rf)));
    ignore
      (E.emit em (I.Mov (O.Mem (O.Disp (rf, Layout.desc_method method_index)), O.Reg rf)));
    ignore (E.emit em (I.Jsr_ind rf));
    E.place em l_ret;
    let nargs = 1 + List.length args in
    let stop_idx = E.emit em (I.Bin2 (I.Add, O.Imm (Int32.of_int (4 * nargs)), O.Reg sp)) in
    (stop_idx, alt_idx)

  let syscall em ~nr ~args ~scratch:_ =
    List.iter (fun a -> push em a) (List.rev args);
    E.emit em (I.Syscall nr)

  let mon_exit em ~self ~scratch =
    push em self;
    let dequeue_idx = E.emit em (I.Syscall Sysno.sys_mon_exit_dequeue) in
    ignore (E.emit em (I.Cmp (O.Reg d0, O.Imm 0l)));
    let l_release = E.fresh_label em and l_done = E.fresh_label em in
    E.branch em (Some I.Eq) l_release;
    push em (Codegen_common.Lreg d0);
    let wake_idx = E.emit em (I.Syscall Sysno.sys_mon_wake) in
    E.branch em None l_done;
    E.place em l_release;
    let rs = scratch () in
    load em ~dst:rs ~src:self;
    ignore (E.emit em (I.Mov (O.Imm 0l, O.Mem (O.Disp (rs, Layout.obj_lock)))));
    E.place em l_done;
    {
      Codegen_common.me_dequeue_idx = dequeue_idx;
      me_dequeue_exit_only = false;
      me_dequeue_args = 1;
      me_wake_idx = wake_idx;
      me_wake_args = 1;
    }
end

module Driver = Codegen_common.Make (Family)

let compile_class_at = Driver.compile_class_at
