module A = Isa.Arch
module R = Isa.Reg
module I = Isa.Insn
module O = Isa.Operand
module E = Codegen_common.Emitter

let fp = R.fp A.Sparc (* %i6 *)
let o0 = 8
let i0 = 24
let g0 = 0

let imm13_ok v = Int32.compare v (-4096l) >= 0 && Int32.compare v 4096l < 0

(* materialise an arbitrary 32-bit constant in a register *)
let load_imm em r v =
  if imm13_ok v then ignore (E.emit em (I.Mov (O.Imm v, O.Reg r)))
  else begin
    let hi = Int32.shift_right_logical v 10 in
    let lo = Int32.logand v 0x3FFl in
    ignore (E.emit em (I.Sethi (hi, r)));
    if not (Int32.equal lo 0l) then
      ignore (E.emit em (I.Bin3 (I.Or, O.Reg r, O.Imm lo, O.Reg r)))
  end

module Family : Codegen_common.FAMILY = struct
  let family = A.Sparc

  let frame_size ~n_slots ~n_scratch =
    let bytes = 4 * (n_slots + n_scratch) in
    (bytes + 7) land lnot 7 (* 8-byte stack alignment *)

  let slot_offset ~n_slots:_ s = -4 * (s + 1)
  let scratch_offset ~n_slots ~n_scratch:_ s = -4 * (n_slots + s + 1)

  (* the 64-byte register-window save area sits below the frame proper *)
  let fixed_sp_depth ~frame_size = 64 + frame_size
  let arg_push_bytes _ = 0
  let retval_reg = o0

  let prologue em ~frame_size ~param_offsets =
    ignore (E.emit em (I.Save frame_size));
    (* spill the register arguments (self in %i0) into their slots *)
    Array.iteri
      (fun i off ->
        ignore (E.emit em (I.Mov (O.Reg (i0 + i), O.Mem (O.Disp (fp, off))))))
      param_offsets

  let epilogue em ~result_offset =
    (match result_offset with
    | Some off -> ignore (E.emit em (I.Mov (O.Mem (O.Disp (fp, off)), O.Reg i0)))
    | None -> ());
    ignore (E.emit em I.Restore);
    ignore (E.emit em I.Retl)

  let load em ~dst ~src =
    match (src : Codegen_common.loc) with
    | Codegen_common.Lreg r ->
      if r <> dst then ignore (E.emit em (I.Mov (O.Reg r, O.Reg dst)))
    | Codegen_common.Limm v -> load_imm em dst v
    | Codegen_common.Lslot off ->
      ignore (E.emit em (I.Mov (O.Mem (O.Disp (fp, off)), O.Reg dst)))

  let store em ~src ~off =
    ignore (E.emit em (I.Mov (O.Reg src, O.Mem (O.Disp (fp, off)))))

  let store_loc em ~src ~off ~scratch =
    match (src : Codegen_common.loc) with
    | Codegen_common.Lreg r -> store em ~src:r ~off
    | Codegen_common.Limm 0l -> store em ~src:g0 ~off
    | Codegen_common.Limm _ | Codegen_common.Lslot _ ->
      let r = scratch () in
      load em ~dst:r ~src;
      store em ~src:r ~off

  let load_mem em ~dst ~base ~disp =
    ignore (E.emit em (I.Mov (O.Mem (O.Disp (base, disp)), O.Reg dst)))

  let store_mem em ~src ~base ~disp =
    ignore (E.emit em (I.Mov (O.Reg src, O.Mem (O.Disp (base, disp)))))

  (* a source operand for arithmetic: a register or a 13-bit immediate *)
  let source em ~scratch (l : Codegen_common.loc) : O.t =
    match l with
    | Codegen_common.Lreg r -> O.Reg r
    | Codegen_common.Limm v when imm13_ok v -> O.Imm v
    | Codegen_common.Limm _ | Codegen_common.Lslot _ ->
      let r = scratch () in
      load em ~dst:r ~src:l;
      O.Reg r

  let reg_source em ~scratch l =
    match source em ~scratch l with
    | O.Reg r -> O.Reg r
    | O.Imm v ->
      let r = scratch () in
      load_imm em r v;
      O.Reg r
    | O.Mem _ -> assert false

  let bin em op ~ty ~a ~b ~dst ~scratch =
    match ty with
    | Ir.Aint ->
      let oa = reg_source em ~scratch a in
      let ob = source em ~scratch b in
      ignore (E.emit em (I.Bin3 (op, oa, ob, O.Reg dst)))
    | Ir.Areal ->
      let oa = reg_source em ~scratch a in
      let ob = reg_source em ~scratch b in
      ignore (E.emit em (I.Fbin3 (op, oa, ob, O.Reg dst)))

  let neg em ~ty ~a ~dst ~scratch =
    let oa = reg_source em ~scratch a in
    match ty with
    | Ir.Aint -> ignore (E.emit em (I.Neg (oa, O.Reg dst)))
    | Ir.Areal -> ignore (E.emit em (I.Fneg (oa, O.Reg dst)))

  let cvt_int_real em ~a ~dst ~scratch =
    let oa = reg_source em ~scratch a in
    ignore (E.emit em (I.Cvt_if (oa, O.Reg dst)))

  let cmp em ~ty ~a ~b ~scratch =
    match ty with
    | Ir.Aint ->
      let oa = reg_source em ~scratch a in
      let ob = source em ~scratch b in
      ignore (E.emit em (I.Cmp (oa, ob)))
    | Ir.Areal ->
      let oa = reg_source em ~scratch a in
      let ob = reg_source em ~scratch b in
      ignore (E.emit em (I.Fcmp (oa, ob)))

  let invoke em ~target ~args ~method_index ~scratch =
    (* self and arguments travel in the out registers *)
    load em ~dst:o0 ~src:target;
    List.iteri (fun i a -> load em ~dst:(o0 + 1 + i) ~src:a) args;
    let rf = scratch () in
    load_mem em ~dst:rf ~base:o0 ~disp:Layout.obj_flags;
    ignore
      (E.emit em
         (I.Bin3 (I.And, O.Reg rf, O.Imm (Int32.of_int Layout.flag_resident), O.Reg rf)));
    ignore (E.emit em (I.Cmp (O.Reg rf, O.Imm 0l)));
    let l_local = E.fresh_label em and l_ret = E.fresh_label em in
    E.branch em (Some I.Ne) l_local;
    let alt_idx = E.emit em (I.Syscall Sysno.sys_invoke) in
    E.branch em None l_ret;
    E.place em l_local;
    load_mem em ~dst:rf ~base:o0 ~disp:Layout.obj_desc;
    load_mem em ~dst:rf ~base:rf ~disp:(Layout.desc_method method_index);
    ignore (E.emit em (I.Jsr_ind rf));
    (* delay-slot NOP; also the canonical resume PC of this stop *)
    let stop_idx = E.emit em I.Nop in
    E.place em l_ret;
    (stop_idx, alt_idx)

  let syscall em ~nr ~args ~scratch:_ =
    List.iteri (fun i a -> load em ~dst:(o0 + i) ~src:a) args;
    E.emit em (I.Syscall nr)

  let mon_exit em ~self ~scratch =
    load em ~dst:o0 ~src:self;
    let dequeue_idx = E.emit em (I.Syscall Sysno.sys_mon_exit_dequeue) in
    ignore (E.emit em (I.Cmp (O.Reg o0, O.Imm 0l)));
    let l_release = E.fresh_label em and l_done = E.fresh_label em in
    E.branch em (Some I.Eq) l_release;
    (* the dequeued waiter is already in %o0 *)
    let wake_idx = E.emit em (I.Syscall Sysno.sys_mon_wake) in
    E.branch em None l_done;
    E.place em l_release;
    let rs = scratch () in
    load em ~dst:rs ~src:self;
    (* store %g0: the classic SPARC way to write zero *)
    store_mem em ~src:g0 ~base:rs ~disp:Layout.obj_lock;
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
