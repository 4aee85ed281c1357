module A = Isa.Arch
module M = Isa.Machine
module Mem = Isa.Memory
module T = Thread

type frame_rec = {
  fw_class : int;
  fw_method : int;
  fw_entry : Emc.Busstop.entry;
  fw_fp : int;
  fw_ret_out : int;
  fw_self : int;
}

let fail fmt = Format.kasprintf (fun m -> raise (Kernel.Runtime_error m)) fmt
let sparc_i6_off = 32 + (4 * 6)
let sparc_i7_off = 32 + (4 * 7)

let self_offset k ~class_index ~method_index =
  let ct = (Kernel.loaded_class k class_index).Kernel.lc_class.Emc.Compile.cc_template in
  let self_slot = Emc.Template.var_slot ct.Emc.Template.ct_ops.(method_index) 0 in
  (Kernel.frame_info k ~class_index ~method_index).Emc.Busstop.fr_slot_offsets.(self_slot)

let frame_of_pc k ~pc ~fp ~ret_out =
  match Kernel.stop_at_pc k pc with
  | None -> fail "walk: PC %#x of a suspended activation record is not a bus stop" pc
  | Some (lc, entry) ->
    let class_index = lc.Kernel.lc_class.Emc.Compile.cc_index in
    let method_index = entry.Emc.Busstop.be_op in
    let self_off = self_offset k ~class_index ~method_index in
    let fw_self = Mem.load32_bits (Kernel.mem k) (fp + self_off) in
    { fw_class = class_index; fw_method = method_index; fw_entry = entry; fw_fp = fp;
      fw_ret_out = ret_out; fw_self }

let walk k (seg : T.segment) =
  if seg.T.seg_spawn <> None then []
  else begin
    let arch = Kernel.arch k in
    let family = arch.A.family in
    let mem = Kernel.mem k in
    let ctx = seg.T.seg_ctx in
    let ret_out_vax_m68k fp =
      match family with
      | A.Vax -> Mem.load32_bits mem (fp + 8)
      | A.M68k -> Mem.load32_bits mem (fp + 4)
      | A.Sparc -> assert false
    in
    let rec go fp pc ret_out acc =
      let fr = frame_of_pc k ~pc ~fp ~ret_out in
      let acc = fr :: acc in
      if ret_out = 0 then List.rev acc
      else
        match family with
        | A.Vax | A.M68k ->
          let parent_fp = Mem.load32_bits mem fp in
          let parent_ret = ret_out_vax_m68k parent_fp in
          go parent_fp ret_out parent_ret acc
        | A.Sparc ->
          let fi = Kernel.frame_info k ~class_index:fr.fw_class ~method_index:fr.fw_method in
          let sp = fp - fi.Emc.Busstop.fr_fixed_sp_depth in
          let parent_fp = Mem.load32_bits mem (sp + sparc_i6_off) in
          let parent_ret = Mem.load32_bits mem (sp + sparc_i7_off) in
          go parent_fp ret_out parent_ret acc
    in
    let top_fp = M.fp ctx in
    let top_ret =
      match family with
      | A.Vax | A.M68k -> ret_out_vax_m68k top_fp
      | A.Sparc -> M.reg_int ctx 31
    in
    go top_fp ctx.M.pc top_ret []
  end

let live_at k fr =
  let ct = (Kernel.loaded_class k fr.fw_class).Kernel.lc_class.Emc.Compile.cc_template in
  (Emc.Template.stop_by_id ct fr.fw_entry.Emc.Busstop.be_id).Emc.Template.st_live

let live_count k fr = List.length (live_at k fr)

let fold_live k fr f acc =
  let fi = Kernel.frame_info k ~class_index:fr.fw_class ~method_index:fr.fw_method in
  let mem = Kernel.mem k in
  List.fold_right
    (fun (es : Emc.Template.entity_slot) acc ->
      let off = fi.Emc.Busstop.fr_slot_offsets.(es.Emc.Template.es_slot) in
      f es (Mem.load32_bits mem (fr.fw_fp + off)) acc)
    (live_at k fr) acc
