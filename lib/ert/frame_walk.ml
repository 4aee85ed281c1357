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

(* the return address out of a VAX or M68k frame *)
let ret_out_cisc mem family fp =
  match family with
  | A.Vax -> Mem.load32_bits mem (fp + 8)
  | A.M68k -> Mem.load32_bits mem (fp + 4)
  | A.Sparc -> assert false

(* the one walk over the frame chain; every argument is passed down, so
   a walk builds no closure *)
let rec fold_chain k mem family f ~fp ~pc ~ret_out acc =
  match Kernel.stop_at_pc k pc with
  | None -> fail "walk: PC %#x of a suspended activation record is not a bus stop" pc
  | Some (lc, entry) ->
    let class_index = lc.Kernel.lc_class.Emc.Compile.cc_index in
    let method_index = entry.Emc.Busstop.be_op in
    let acc = f ~class_index ~method_index entry ~fp ~ret_out acc in
    if ret_out = 0 then acc
    else
      match family with
      | A.Vax | A.M68k ->
        let parent_fp = Mem.load32_bits mem fp in
        fold_chain k mem family f ~fp:parent_fp ~pc:ret_out
          ~ret_out:(ret_out_cisc mem family parent_fp) acc
      | A.Sparc ->
        let fi = Kernel.frame_info k ~class_index ~method_index in
        let sp = fp - fi.Emc.Busstop.fr_fixed_sp_depth in
        fold_chain k mem family f
          ~fp:(Mem.load32_bits mem (sp + sparc_i6_off))
          ~pc:ret_out
          ~ret_out:(Mem.load32_bits mem (sp + sparc_i7_off))
          acc

let fold k (seg : T.segment) f acc =
  match seg.T.seg_spawn with
  | Some _ -> acc
  | None ->
    let family = (Kernel.arch k).A.family in
    let mem = Kernel.mem k in
    let ctx = seg.T.seg_ctx in
    let fp = M.fp ctx in
    let ret_out =
      match family with
      | A.Vax | A.M68k -> ret_out_cisc mem family fp
      | A.Sparc -> M.reg_int ctx 31
    in
    fold_chain k mem family f ~fp ~pc:ctx.M.pc ~ret_out acc

let cons_frame k ~class_index ~method_index fw_entry ~fp ~ret_out acc =
  let self_off = self_offset k ~class_index ~method_index in
  { fw_class = class_index; fw_method = method_index; fw_entry; fw_fp = fp;
    fw_ret_out = ret_out; fw_self = Mem.load32_bits (Kernel.mem k) (fp + self_off) }
  :: acc

let walk k seg = List.rev (fold k seg (cons_frame k) [])

let live_at k ~class_index (entry : Emc.Busstop.entry) =
  let ct = (Kernel.loaded_class k class_index).Kernel.lc_class.Emc.Compile.cc_template in
  (Emc.Template.stop_by_id ct entry.Emc.Busstop.be_id).Emc.Template.st_live

let live_count k fr = List.length (live_at k ~class_index:fr.fw_class fr.fw_entry)

(* [List.fold_right]'s order, with the frame passed down instead of
   captured *)
let rec fold_slots mem offsets fp f live acc =
  match live with
  | [] -> acc
  | (es : Emc.Template.entity_slot) :: rest ->
    let acc = fold_slots mem offsets fp f rest acc in
    f es (Mem.load32_bits mem (fp + offsets.(es.Emc.Template.es_slot))) acc

let fold_live k ~class_index ~method_index entry ~fp f acc =
  let fi = Kernel.frame_info k ~class_index ~method_index in
  fold_slots (Kernel.mem k) fi.Emc.Busstop.fr_slot_offsets fp f
    (live_at k ~class_index entry) acc
