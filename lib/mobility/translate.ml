module A = Isa.Arch
module M = Isa.Machine
module Mem = Isa.Memory
module K = Ert.Kernel
module T = Ert.Thread
module FW = Ert.Frame_walk
module V = Ert.Value

let fail fmt = Format.kasprintf (fun m -> raise (K.Runtime_error m)) fmt

(* per-family geometry of the cells a callee's presence adds between the
   caller's stack pointer and the callee's frame pointer *)
let linkage_bytes = function
  | A.Vax -> 12 (* return address, save mask, saved FP *)
  | A.M68k -> 8 (* return address, saved FP *)
  | A.Sparc -> 0 (* the callee's FP is the caller's SP *)

(* pad above the oldest frame's FP for the cells its epilogue pops *)
let top_pad = function
  | A.Vax -> 16
  | A.M68k -> 12
  | A.Sparc -> 8

let boxed_tag : Emc.Ast.typ -> int = function
  | Emc.Ast.Treal -> V.tag_real
  | Emc.Ast.Tstring -> V.tag_str
  | _ -> V.tag_vec

(* A live value becomes a tag and a word ({!Mi_frame.mi_frame}): only a
   real, string or vector is converted to a boxed [Value.t]. *)
let capture_frame k (fr : FW.frame_rec) =
  let n = FW.live_count k fr in
  let slots = Array.make n 0 and tags = Bytes.make n '\000' and words = Array.make n 0 in
  let boxed = ref [] in
  let (_ : int) =
    FW.fold_live k ~class_index:fr.FW.fw_class ~method_index:fr.FW.fw_method fr.FW.fw_entry
      ~fp:fr.FW.fw_fp
      (fun es bits i ->
        slots.(i) <- es.Emc.Template.es_slot;
        let tag =
          match es.Emc.Template.es_type with
          | Emc.Ast.Tint ->
            words.(i) <- M.sx bits;
            V.tag_int
          | Emc.Ast.Tbool ->
            words.(i) <- Bool.to_int (bits <> 0);
            V.tag_bool
          | Emc.Ast.Tobj _ | Emc.Ast.Tnil | Emc.Ast.Tstring | Emc.Ast.Tvec _ when bits = 0 ->
            V.tag_nil
          | Emc.Ast.Tobj _ | Emc.Ast.Tnil ->
            (* [Oid.intern (K.oid_at k bits)], read without the int32 *)
            words.(i) <- M.sx (Mem.load32_bits (K.mem k) (bits + Emc.Layout.obj_oid));
            V.tag_ref
          | (Emc.Ast.Treal | Emc.Ast.Tstring | Emc.Ast.Tvec _) as ty ->
            boxed := K.value_of_raw k ty (Int32.of_int bits) :: !boxed;
            boxed_tag ty
        in
        Bytes.set_uint8 tags i tag;
        i - 1)
      (n - 1)
  in
  (* the fold ran from the last live value to the first, so [!boxed] is
     in wire order: number the boxed words along it *)
  if !boxed <> [] then begin
    let j = ref 0 in
    for i = 0 to n - 1 do
      if Mi_frame.is_boxed_tag (Bytes.get_uint8 tags i) then begin
        words.(i) <- !j;
        incr j
      end
    done
  end;
  {
    Mi_frame.mf_class = fr.FW.fw_class;
    mf_code_oid = (K.loaded_class k fr.FW.fw_class).K.lc_code.Isa.Code.code_oid;
    mf_method = fr.FW.fw_method;
    mf_stop = fr.FW.fw_entry.Emc.Busstop.be_id;
    mf_slots = slots;
    mf_tags = tags;
    mf_words = words;
    mf_boxed = Array.of_list !boxed;
    mf_self = K.oid_at k fr.FW.fw_self;
  }

(* the suspension is already machine-independent: it passes through
   unconverted (the old resume_to_mi/resume_of_mi pair is gone), but for
   a result held as a word, which travels as the value it stands for *)
let status_to_mi k (seg : T.segment) =
  match seg.T.seg_status with
  | T.Parked (Isa.Suspend.Complete_word (w, bits)) ->
    Mi_frame.Ms_parked (Isa.Suspend.Complete (Some (Ert.Value.of_word w bits)))
  | T.Parked s -> Mi_frame.Ms_parked s
  | T.Awaiting_reply { stop_id } -> Mi_frame.Ms_awaiting_reply stop_id
  | T.Blocked_monitor { mon_addr; qnode; cond; deadline } ->
    Mi_frame.Ms_blocked_monitor
      { mon = K.oid_at k mon_addr; in_queue = qnode <> 0; cond; deadline }
  | T.Running ->
    fail "cannot capture running segment %d (park it at its stop first)" seg.T.seg_id
  | T.Dead -> fail "cannot capture dead segment %d" seg.T.seg_id

let status_of_mi k = function
  | Mi_frame.Ms_parked s -> T.Parked s
  | Mi_frame.Ms_awaiting_reply stop_id -> T.Awaiting_reply { stop_id }
  | Mi_frame.Ms_blocked_monitor { mon; in_queue; cond; deadline } ->
    let mon_addr = K.ensure_ref k mon in
    ignore in_queue;
    (* queue membership is restored by the caller, in marshalled order *)
    T.Blocked_monitor { mon_addr; qnode = 0; cond; deadline }

(* geometry of one rebuilt frame on this node *)
type build_frame = {
  bf : Mi_frame.mi_frame;
  bf_fi : Emc.Busstop.frame_info;
  bf_entry : Emc.Busstop.entry;
  bf_resume_abs : int;  (** absolute PC at which this frame resumes *)
  bf_depth : int;  (** SP depth below FP while suspended here *)
  mutable bf_fp : int;  (** final frame pointer *)
}

let rebuild_segment k (mi : Mi_frame.mi_segment) : T.segment =
  match mi.Mi_frame.ms_spawn with
  | Some spawn ->
    K.spawn_exact k ~spawn ~link:mi.Mi_frame.ms_link ~thread:mi.Mi_frame.ms_thread
      ~seg_id:mi.Mi_frame.ms_seg_id
      ~status:(status_of_mi k mi.Mi_frame.ms_status)
  | None ->
    let arch = K.arch k in
    let family = arch.A.family in
    let mem = K.mem k in
    let frames = mi.Mi_frame.ms_frames in
    if frames = [] then fail "rebuild: segment %d has no frames" mi.Mi_frame.ms_seg_id;
    let builds =
      List.map
        (fun (f : Mi_frame.mi_frame) ->
          let class_index = f.Mi_frame.mf_class in
          let entry = K.stop_by_id k ~class_index ~stop_id:f.Mi_frame.mf_stop in
          let fi = K.frame_info k ~class_index ~method_index:f.Mi_frame.mf_method in
          {
            bf = f;
            bf_fi = fi;
            bf_entry = entry;
            bf_resume_abs = K.resume_abs k ~class_index entry;
            bf_depth = entry.Emc.Busstop.be_sp_depth;
            bf_fp = 0;
          })
        frames
    in
    let n = List.length builds in
    let barr = Array.of_list builds in
    let stack_top = K.alloc_stack k in
    let stack_bottom = stack_top - K.stack_bytes + 256 in
    (* phase 1: translate youngest first into provisional positions at the
       low end of the region (final positions depend on the sizes of the
       records still to be translated — the situation of section 3.5) *)
    let prov_fp = Array.make n 0 in
    let cursor = ref (stack_bottom + 64) in
    Array.iteri
      (fun i b ->
        prov_fp.(i) <- !cursor + b.bf_depth;
        cursor := !cursor + b.bf_depth + linkage_bytes family + 16)
      barr;
    let write_slots fp (b : build_frame) =
      (* the self slot is not always in the stop's live set (a spin loop may
         never read self again), but the frame walk relies on it to identify
         the activation's object on a later capture — restore it first, then
         let a live capture of the same slot overwrite with the same value *)
      let self_off =
        FW.self_offset k ~class_index:b.bf.Mi_frame.mf_class
          ~method_index:b.bf.Mi_frame.mf_method
      in
      let f = b.bf in
      Mem.store32_bits mem (fp + self_off) (K.ensure_ref k f.Mi_frame.mf_self);
      let offsets = b.bf_fi.Emc.Busstop.fr_slot_offsets in
      for i = 0 to Array.length f.Mi_frame.mf_slots - 1 do
        let addr = fp + offsets.(f.Mi_frame.mf_slots.(i)) in
        let tag = Bytes.get_uint8 f.Mi_frame.mf_tags i and word = f.Mi_frame.mf_words.(i) in
        if tag = V.tag_ref then Mem.store32_bits mem addr (K.ensure_ref k (Int32.of_int word))
        else if Mi_frame.is_boxed_tag tag then
          Mem.store32 mem addr (K.raw_of_value k f.Mi_frame.mf_boxed.(word))
        else Mem.store32_bits mem addr word
      done
    in
    Array.iteri (fun i b -> write_slots prov_fp.(i) b) barr;
    (* phase 2: compute final placement (oldest frame near the stack top)
       and relocate each record *)
    let pad = top_pad family in
    barr.(n - 1).bf_fp <- stack_top - pad;
    for i = n - 2 downto 0 do
      let parent = barr.(i + 1) in
      let parent_sp = parent.bf_fp - parent.bf_depth in
      barr.(i).bf_fp <- parent_sp - linkage_bytes family
    done;
    (* relocate oldest first (highest destination) so overlapping moves
       never clobber records still to be moved *)
    for i = n - 1 downto 0 do
      let b = barr.(i) in
      let src_lo = prov_fp.(i) - b.bf_depth in
      let dst_lo = b.bf_fp - b.bf_depth in
      if src_lo <> dst_lo then
        Mem.blit_within mem ~src:src_lo ~dst:dst_lo ~len:b.bf_depth
    done;
    (* zero the abandoned provisional area (up to the final records) so
       stale values never alias *)
    let final_low = barr.(0).bf_fp - barr.(0).bf_depth in
    let prov_high = min !cursor final_low in
    if prov_high > stack_bottom + 64 then
      Mem.zero_fill mem (stack_bottom + 64) (prov_high - stack_bottom - 64);
    (* calling-convention linkage *)
    (match family with
    | A.Vax ->
      Array.iteri
        (fun i b ->
          let parent_fp = if i = n - 1 then 0 else barr.(i + 1).bf_fp in
          let ret = if i = n - 1 then 0 else barr.(i + 1).bf_resume_abs in
          Mem.store32 mem b.bf_fp (Int32.of_int parent_fp);
          Mem.store32 mem (b.bf_fp + 4) 0l;
          Mem.store32 mem (b.bf_fp + 8) (Int32.of_int ret))
        barr
    | A.M68k ->
      Array.iteri
        (fun i b ->
          let parent_fp = if i = n - 1 then 0 else barr.(i + 1).bf_fp in
          let ret = if i = n - 1 then 0 else barr.(i + 1).bf_resume_abs in
          Mem.store32 mem b.bf_fp (Int32.of_int parent_fp);
          Mem.store32 mem (b.bf_fp + 4) (Int32.of_int ret))
        barr
    | A.Sparc ->
      (* frame i's spill area holds frame i+1's register window: its FP and
         the address it will return to (frame i+2's resume point) *)
      Array.iteri
        (fun i b ->
          let sp = b.bf_fp - b.bf_depth in
          let parent_fp = if i = n - 1 then 0 else barr.(i + 1).bf_fp in
          let parent_ret = if i >= n - 2 then 0 else barr.(i + 2).bf_resume_abs in
          Mem.store32 mem (sp + FW.sparc_i6_off) (Int32.of_int parent_fp);
          Mem.store32 mem (sp + FW.sparc_i7_off) (Int32.of_int parent_ret))
        barr);
    (* register context for the youngest frame *)
    let ctx = M.create_ctx arch in
    let top = barr.(0) in
    M.set_fp ctx top.bf_fp;
    M.set_sp ctx (top.bf_fp - top.bf_depth);
    (match family with
    | A.Sparc ->
      M.set_reg_int ctx 31 (if n >= 2 then barr.(1).bf_resume_abs else 0)
    | A.Vax | A.M68k -> ());
    ctx.M.pc <- top.bf_resume_abs;
    let seg =
      {
        T.seg_id = mi.Mi_frame.ms_seg_id;
        seg_thread = mi.Mi_frame.ms_thread;
        seg_status = status_of_mi k mi.Mi_frame.ms_status;
        seg_ctx = ctx;
        seg_stack_top = stack_top;
        seg_stack_bottom = stack_bottom;
        seg_link = mi.Mi_frame.ms_link;
        seg_result_type = mi.Mi_frame.ms_result_type;
        seg_spawn = None;
        seg_live = false;
      }
    in
    ctx.M.stack_limit <- stack_bottom;
    K.register_segment k seg;
    seg

let patch_segment_bottom k _seg (frames : FW.frame_rec list) =
  match List.rev frames with
  | [] -> ()
  | bottom :: rest_above_rev ->
    let mem = K.mem k in
    (match (K.arch k).A.family with
    | A.Vax ->
      Mem.store32 mem bottom.FW.fw_fp 0l;
      Mem.store32 mem (bottom.FW.fw_fp + 8) 0l
    | A.M68k ->
      Mem.store32 mem bottom.FW.fw_fp 0l;
      Mem.store32 mem (bottom.FW.fw_fp + 4) 0l
    | A.Sparc -> (
      (* the bottom frame's window is spilled in its child's spill area
         (the next frame up in this run); a single-frame run keeps its
         window in the context, handled by make_ctx_for_top *)
      match rest_above_rev with
      | [] -> ()
      | child :: _ ->
        let fi =
          K.frame_info k ~class_index:child.FW.fw_class ~method_index:child.FW.fw_method
        in
        let sp = child.FW.fw_fp - fi.Emc.Busstop.fr_fixed_sp_depth in
        Mem.store32 mem (sp + FW.sparc_i7_off) 0l))

let make_ctx_for_top k ~(top : FW.frame_rec) ~below_resume =
  let arch = K.arch k in
  let ctx = M.create_ctx arch in
  M.set_fp ctx top.FW.fw_fp;
  M.set_sp ctx (top.FW.fw_fp - top.FW.fw_entry.Emc.Busstop.be_sp_depth);
  (match arch.A.family with
  | A.Sparc -> M.set_reg_int ctx 31 below_resume
  | A.Vax | A.M68k -> ());
  ctx.M.pc <- K.resume_abs k ~class_index:top.FW.fw_class top.FW.fw_entry;
  ctx
