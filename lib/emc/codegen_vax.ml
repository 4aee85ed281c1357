module A = Isa.Arch
module R = Isa.Reg
module I = Isa.Insn
module O = Isa.Operand
module E = Codegen_common.Emitter

let fp = R.fp A.Vax
let sp = R.sp A.Vax

let operand (l : Codegen_common.loc) : O.t =
  match l with
  | Codegen_common.Lreg r -> O.Reg r
  | Codegen_common.Limm v -> O.Imm v
  | Codegen_common.Lslot off -> O.Mem (O.Disp (fp, off))

module Family : Codegen_common.FAMILY = struct
  let family = A.Vax
  let frame_size ~n_slots ~n_scratch = 4 * (n_slots + n_scratch)
  let slot_offset ~n_slots:_ s = -4 * (s + 1)
  let scratch_offset ~n_slots ~n_scratch:_ s = -4 * (n_slots + s + 1)
  let fixed_sp_depth ~frame_size = frame_size
  let arg_push_bytes n = 4 * n
  let retval_reg = 0

  (* frame: [FP]=saved FP, [FP+4]=save mask, [FP+8]=return address,
     [FP+12]=self, [FP+16]=arg1, ... *)
  let prologue em ~frame_size ~param_offsets =
    ignore (E.emit em (I.Vax_entry frame_size));
    Array.iteri
      (fun i off ->
        ignore
          (E.emit em (I.Mov (O.Mem (O.Disp (fp, 12 + (4 * i))), O.Mem (O.Disp (fp, off))))))
      param_offsets

  let epilogue em ~result_offset =
    (match result_offset with
    | Some off -> ignore (E.emit em (I.Mov (O.Mem (O.Disp (fp, off)), O.Reg retval_reg)))
    | None -> ());
    ignore (E.emit em I.Vax_ret)

  let load em ~dst ~src = ignore (E.emit em (I.Mov (operand src, O.Reg dst)))
  let store em ~src ~off = ignore (E.emit em (I.Mov (O.Reg src, O.Mem (O.Disp (fp, off)))))

  let store_loc em ~src ~off ~scratch:_ =
    (* the VAX moves memory to memory directly *)
    ignore (E.emit em (I.Mov (operand src, O.Mem (O.Disp (fp, off)))))

  let load_mem em ~dst ~base ~disp =
    ignore (E.emit em (I.Mov (O.Mem (O.Disp (base, disp)), O.Reg dst)))

  let store_mem em ~src ~base ~disp =
    ignore (E.emit em (I.Mov (O.Reg src, O.Mem (O.Disp (base, disp)))))

  let bin em op ~ty ~a ~b ~dst ~scratch:_ =
    match ty with
    | Ir.Aint -> ignore (E.emit em (I.Bin3 (op, operand a, operand b, O.Reg dst)))
    | Ir.Areal -> ignore (E.emit em (I.Fbin3 (op, operand a, operand b, O.Reg dst)))

  let neg em ~ty ~a ~dst ~scratch:_ =
    match ty with
    | Ir.Aint -> ignore (E.emit em (I.Neg (operand a, O.Reg dst)))
    | Ir.Areal -> ignore (E.emit em (I.Fneg (operand a, O.Reg dst)))

  let cvt_int_real em ~a ~dst ~scratch:_ =
    ignore (E.emit em (I.Cvt_if (operand a, O.Reg dst)))

  let cmp em ~ty ~a ~b ~scratch:_ =
    match ty with
    | Ir.Aint -> ignore (E.emit em (I.Cmp (operand a, operand b)))
    | Ir.Areal -> ignore (E.emit em (I.Fcmp (operand a, operand b)))

  let invoke em ~target ~args ~method_index ~scratch =
    let rt = scratch () in
    load em ~dst:rt ~src:target;
    (* push arguments right to left, self (the target) last *)
    List.iter (fun a -> ignore (E.emit em (I.Push (operand a)))) (List.rev args);
    ignore (E.emit em (I.Push (O.Reg rt)));
    (* residency test on the descriptor flags *)
    let rf = scratch () in
    ignore
      (E.emit em
         (I.Bin3
            ( I.And,
              O.Mem (O.Disp (rt, Layout.obj_flags)),
              O.Imm (Int32.of_int Layout.flag_resident),
              O.Reg rf )));
    ignore (E.emit em (I.Cmp (O.Reg rf, O.Imm 0l)));
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
    let stop_idx =
      E.emit em (I.Bin3 (I.Add, O.Reg sp, O.Imm (Int32.of_int (4 * nargs)), O.Reg sp))
    in
    (stop_idx, alt_idx)

  let syscall em ~nr ~args ~scratch:_ =
    List.iter (fun a -> ignore (E.emit em (I.Push (operand a)))) (List.rev args);
    E.emit em (I.Syscall nr)

  let mon_exit em ~self ~scratch =
    let rs = scratch () in
    load em ~dst:rs ~src:self;
    let rq = scratch () in
    ignore
      (E.emit em
         (I.Bin3 (I.Add, O.Reg rs, O.Imm (Int32.of_int Layout.obj_qflink), O.Reg rq)));
    let rw = scratch () in
    (* the atomic unlink: single instruction, exit-only bus stop *)
    let dequeue_idx = E.emit em (I.Remque (rq, rw)) in
    ignore (E.emit em (I.Cmp (O.Reg rw, O.Imm 0l)));
    let l_release = E.fresh_label em and l_done = E.fresh_label em in
    E.branch em (Some I.Eq) l_release;
    ignore (E.emit em (I.Push (O.Reg rw)));
    let wake_idx = E.emit em (I.Syscall Sysno.sys_mon_wake) in
    E.branch em None l_done;
    E.place em l_release;
    ignore (E.emit em (I.Mov (O.Imm 0l, O.Mem (O.Disp (rs, Layout.obj_lock)))));
    E.place em l_done;
    {
      Codegen_common.me_dequeue_idx = dequeue_idx;
      me_dequeue_exit_only = true;
      me_dequeue_args = 0;
      me_wake_idx = wake_idx;
      me_wake_args = 1;
    }
end

module Driver = Codegen_common.Make (Family)

let compile_class_at = Driver.compile_class_at
