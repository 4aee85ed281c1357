module K = Ert.Kernel
module T = Ert.Thread
module FW = Ert.Frame_walk
module Mem = Isa.Memory
module L = Emc.Layout

type send = {
  snd_dest : int;
  snd_msg : Marshal.message;
}

let fail fmt = Format.kasprintf (fun m -> raise (K.Runtime_error m)) fmt

(* union of attached-reference closures over several roots, one shared
   visited set so overlapping closures contribute each object once, in
   root order *)
let closure_of_roots k roots =
  let seen = Hashtbl.create 8 in
  let rec go addr acc =
    if Hashtbl.mem seen addr || not (K.is_resident k addr) then acc
    else begin
      Hashtbl.replace seen addr ();
      let attached = K.attached_refs k ~addr in
      List.fold_left (fun acc a -> go a acc) (addr :: acc) attached
    end
  in
  List.rev (List.fold_left (fun acc root -> go root acc) [] roots)

(* an object with no attached references is its own closure *)
let moving_closure k obj_addr =
  if K.is_resident k obj_addr && K.attached_refs k ~addr:obj_addr = [] then [ obj_addr ]
  else closure_of_roots k [ obj_addr ]

let field_types k ~class_index =
  let lc = K.loaded_class k class_index in
  lc.K.lc_class.Emc.Compile.cc_template.Emc.Template.ct_fields

(* capture one object's data area and monitor state *)
let capture_object k addr : Marshal.move_object =
  let class_index = K.class_of_object k addr in
  let fields = field_types k ~class_index in
  let mem = K.mem k in
  let values =
    Array.mapi
      (fun i (_, ty) -> K.value_of_raw k ty (Mem.load32 mem (addr + L.field_offset i)))
      fields
  in
  let lc = K.loaded_class k class_index in
  let nconds =
    Array.length lc.K.lc_class.Emc.Compile.cc_template.Emc.Template.ct_conditions
  in
  {
    Marshal.mo_oid = K.oid_at k addr;
    mo_class = class_index;
    mo_fields = values;
    mo_locked = K.monitor_locked k ~obj_addr:addr;
    mo_waiters =
      List.map (fun (s : T.segment) -> s.T.seg_id) (K.monitor_waiters k ~obj_addr:addr);
    mo_cond_waiters =
      List.init nconds (fun cond ->
          List.map
            (fun (s : T.segment) -> s.T.seg_id)
            (K.condition_waiters k ~obj_addr:addr ~cond));
  }

(* group a top-first frame list into maximal runs of equal moving-flag *)
let group_runs moves frames =
  let rec go acc cur cur_flag = function
    | [] -> List.rev ((cur_flag, List.rev cur) :: acc)
    | frame :: rest ->
      let flag = moves frame in
      if flag = cur_flag then go acc (frame :: cur) cur_flag rest
      else go ((cur_flag, List.rev cur) :: acc) [ frame ] flag rest
  in
  match frames with
  | [] -> []
  | frame :: rest -> go [] [ frame ] (moves frame) rest

(* split one segment's stack by the moving predicate; returns the
   machine-independent segments to ship *)
let split_segment k ~dest ~moving_oid (seg : T.segment) : Mi_frame.mi_segment list =
  let self_node = K.node_id k in
  match seg.T.seg_spawn with
  | Some spawn ->
    if not (moving_oid spawn.T.si_target) then []
    else begin
      K.unregister_segment k seg;
      K.release_stack k seg;
      K.set_seg_forward k ~seg_id:seg.T.seg_id ~node:dest;
      [
        {
          Mi_frame.ms_seg_id = seg.T.seg_id;
          ms_thread = seg.T.seg_thread;
          ms_status = Translate.status_to_mi k seg;
          ms_frames = [];
          ms_link = seg.T.seg_link;
          ms_result_type = seg.T.seg_result_type;
          ms_spawn = Some spawn;
        };
      ]
    end
  | None ->
    let frames = FW.walk k seg in
    let moves (f : FW.frame_rec) = moving_oid (K.oid_at k f.FW.fw_self) in
    let n_moving = List.fold_left (fun n f -> if moves f then n + 1 else n) 0 frames in
    if n_moving = 0 then []
    else begin
      (* a segment that moves whole is one run: no grouping *)
      let runs =
        if n_moving = List.length frames then [| (true, frames) |]
        else Array.of_list (group_runs moves frames)
      in
      let n_runs = Array.length runs in
      (* segment ids: the top run inherits the original id (incoming links
         reply to the top frame); lower runs get fresh ids *)
      let ids = Array.init n_runs (fun j -> if j = 0 then seg.T.seg_id else K.fresh_seg_id k) in
      let run_result_type j =
        let _, fs = runs.(j) in
        match List.rev fs with
        | [] -> assert false
        | (bottom : FW.frame_rec) :: _ ->
          K.result_type k ~class_index:bottom.FW.fw_class ~method_index:bottom.FW.fw_method
      in
      let run_link j =
        if j = n_runs - 1 then seg.T.seg_link
        else
          let below_moves, _ = runs.(j + 1) in
          Some
            {
              T.ln_node = (if below_moves then dest else self_node);
              ln_seg = ids.(j + 1);
            }
      in
      let run_status j =
        if j = 0 then Translate.status_to_mi k seg
        else
          let _, fs = runs.(j) in
          match fs with
          | [] -> assert false
          | (top : FW.frame_rec) :: _ ->
            Mi_frame.Ms_awaiting_reply top.FW.fw_entry.Emc.Busstop.be_id
      in
      let shipped = ref [] in
      Array.iteri
        (fun j (moves, fs) ->
          if moves then begin
            let mi =
              {
                Mi_frame.ms_seg_id = ids.(j);
                ms_thread = seg.T.seg_thread;
                ms_status = run_status j;
                ms_frames = List.map (Translate.capture_frame k) fs;
                ms_link = run_link j;
                ms_result_type = run_result_type j;
                ms_spawn = None;
              }
            in
            shipped := mi :: !shipped;
            K.set_seg_forward k ~seg_id:ids.(j) ~node:dest
          end)
        runs;
      (* re-form the staying runs in place, on the original stack *)
      K.unregister_segment k seg;
      Array.iteri
        (fun j (moves, fs) ->
          if not moves then begin
            let top : FW.frame_rec =
              match fs with
              | t :: _ -> t
              | [] -> assert false
            in
            if j = 0 then begin
              (* the original top run keeps its context and status *)
              if n_runs > 1 then begin
                Translate.patch_segment_bottom k seg fs;
                seg.T.seg_link <- run_link 0;
                seg.T.seg_result_type <- run_result_type 0
              end;
              K.register_segment k seg
            end
            else begin
              let below_resume =
                match fs with
                | _ :: (_ : FW.frame_rec) :: _ -> top.FW.fw_ret_out
                | _ -> 0
              in
              if j < n_runs - 1 then Translate.patch_segment_bottom k seg fs;
              let ctx = Translate.make_ctx_for_top k ~top ~below_resume in
              let stay =
                {
                  T.seg_id = ids.(j);
                  seg_thread = seg.T.seg_thread;
                  seg_status =
                    T.Awaiting_reply { stop_id = top.FW.fw_entry.Emc.Busstop.be_id };
                  seg_ctx = ctx;
                  seg_stack_top = seg.T.seg_stack_top;
                  seg_stack_bottom = seg.T.seg_stack_bottom;
                  seg_link = run_link j;
                  seg_result_type = run_result_type j;
                  seg_spawn = None;
                  seg_live = false;
                }
              in
              ctx.Isa.Machine.stack_limit <- stay.T.seg_stack_bottom;
              K.register_segment k stay
            end
          end)
        runs;
      (* a fully shipped segment leaves its stack unused *)
      K.release_stack k seg;
      List.rev !shipped
    end

(* the move protocol body, shared by the single-root and group paths:
   capture, split, then evict behind forwarding proxies *)
let perform_move_of_addrs k ~addrs ~dest : Marshal.move_payload =
  let moving_oid =
    match addrs with
    | [ addr ] -> Ert.Oid.equal (K.oid_at k addr)
    | _ ->
      let oids = Ert.Oid_table.create ~capacity:(List.length addrs) ~dummy:() () in
      List.iter (fun addr -> Ert.Oid_table.replace oids (K.oid_at k addr) ()) addrs;
      Ert.Oid_table.mem oids
  in
  (* capture objects before any state changes *)
  let objects = List.map (capture_object k) addrs in
  (* split every local segment whose stack touches a moving object *)
  let segments =
    List.concat_map (fun seg -> split_segment k ~dest ~moving_oid seg) (K.segments k)
  in
  (* leave forwarding proxies *)
  List.iter (fun addr -> K.evict_object k ~addr ~forward_to:dest) addrs;
  {
    Marshal.mp_src = K.node_id k;
    mp_opt_level = Emc.Opt.to_int (K.opt_level k);
    mp_objects = objects;
    mp_segments = segments;
  }

let perform_move k ~obj_addr ~dest : Marshal.move_payload =
  perform_move_of_addrs k ~addrs:(moving_closure k obj_addr) ~dest

(* Group migration: ship several co-located root objects — their unioned
   closures, every thread segment executing inside any of them, and all
   the monitor state — as ONE payload, one wire transfer, one protocol
   charge.  Non-resident roots are skipped (they already left). *)
let perform_group_move k ~roots ~dest : Marshal.move_payload =
  let addrs = closure_of_roots k (List.filter (K.is_resident k) roots) in
  perform_move_of_addrs k ~addrs ~dest

let park_mover (mover : T.segment) =
  mover.T.seg_status <- T.Parked (Isa.Suspend.Complete None)

let park_mover_for_test = park_mover

let initiate ~k ~mover ~obj_addr ~dest =
  park_mover mover;
  if not (K.is_resident k obj_addr) then begin
    (* a move of a non-resident object: forward the request to its host as
       a hint; the mover continues immediately *)
    K.enqueue_ready k mover;
    let hint = K.proxy_hint k obj_addr in
    if hint = K.node_id k then []
    else
      [
        {
          snd_dest = hint;
          snd_msg = Marshal.M_move_req { obj = K.oid_at k obj_addr; dest; forwards = 0 };
        };
      ]
  end
  else if dest = K.node_id k then begin
    (* already here: complete trivially *)
    K.enqueue_ready k mover;
    []
  end
  else begin
    (* enqueue first: if the mover's own frames move, the queue entry is
       invalidated by unregistration and the destination enqueues it *)
    K.enqueue_ready k mover;
    let payload = perform_move k ~obj_addr ~dest in
    [ { snd_dest = dest; snd_msg = Marshal.M_move payload } ]
  end

(* Forced eviction: the kernel's trap has already captured [seg] at a bus
   stop; ship the object it is executing inside (and, through the normal
   move protocol, every segment touching that object — including monitor
   entry and condition queues, preserving order).  There is no mover
   thread: the eviction was imposed from outside, so nothing resumes
   locally. *)
let initiate_evict ~k ~(seg : T.segment) ~dest =
  if dest = K.node_id k then []
  else begin
    let obj_addr =
      match seg.T.seg_spawn with
      | Some spawn -> K.find_object k spawn.T.si_target
      | None -> (
        match FW.walk k seg with
        | top :: _ -> Some top.FW.fw_self
        | [] -> None)
    in
    match obj_addr with
    | None -> [] (* nothing resident to ship: the target already left *)
    | Some obj_addr ->
      let payload = perform_move k ~obj_addr ~dest in
      [ { snd_dest = dest; snd_msg = Marshal.M_move payload } ]
  end

let handle_move_req ~k ~obj ~dest ~forwards =
  match K.find_object k obj with
  | Some addr when dest <> K.node_id k ->
    let payload = perform_move k ~obj_addr:addr ~dest in
    [ { snd_dest = dest; snd_msg = Marshal.M_move payload } ]
  | Some _ -> []
  | None ->
    if forwards >= 8 then [] (* stale request chasing a fast-moving object: drop *)
    else (
      match K.proxy_of k obj with
      | Some addr ->
        let hint = K.proxy_hint k addr in
        if hint = K.node_id k then []
        else
          [ { snd_dest = hint; snd_msg = Marshal.M_move_req { obj; dest; forwards = forwards + 1 } } ]
      | None -> [])

type apply_stats = {
  ap_objects : int;
  ap_segments : int;
  ap_frames : int;
  ap_src_opt : int;  (* source instance's optimization level (Opt.to_int) *)
  ap_bridged : int;  (* arriving threads landed via a bridge fragment *)
}

let apply_move k (payload : Marshal.move_payload) =
  let mem = K.mem k in
  (* pass 1: descriptors, so references among arriving objects resolve *)
  let installed =
    List.map
      (fun (o : Marshal.move_object) ->
        let addr = K.install_object k ~oid:o.Marshal.mo_oid ~class_index:o.Marshal.mo_class in
        (o, addr))
      payload.Marshal.mp_objects
  in
  (* pass 2: field values *)
  List.iter
    (fun ((o : Marshal.move_object), addr) ->
      Array.iteri
        (fun i v -> Mem.store32 mem (addr + L.field_offset i) (K.raw_of_value k v))
        o.Marshal.mo_fields)
    installed;
  (* pass 3: thread segments (youngest-first translation + relocation).
     Bridge-cache lookups during rebuild = threads whose parked stop has
     no exact correspondent in this node's instance *)
  let bridge = K.bridge k in
  let lookups_before = Ert.Bridge.hits bridge + Ert.Bridge.misses bridge in
  List.iter
    (fun mi -> ignore (Translate.rebuild_segment k mi))
    payload.Marshal.mp_segments;
  let bridged =
    Ert.Bridge.hits bridge + Ert.Bridge.misses bridge - lookups_before
  in
  (* pass 4: monitor state, preserving queue order.  Rebuilt waiters carry
     their (possibly timed) status from pass 3; re-enqueueing must thread
     the deadline through or a timed wait would silently become eternal
     after migration. *)
  let seg_deadline (seg : T.segment) =
    match seg.T.seg_status with
    | T.Blocked_monitor { deadline; _ } -> deadline
    | _ -> None
  in
  List.iter
    (fun ((o : Marshal.move_object), addr) ->
      K.set_monitor_locked k ~obj_addr:addr o.Marshal.mo_locked;
      List.iter
        (fun sid ->
          match K.find_segment k sid with
          | Some seg -> K.monitor_enqueue_blocked k ~obj_addr:addr seg
          | None -> fail "move: monitor waiter segment %d did not arrive" sid)
        o.Marshal.mo_waiters;
      List.iteri
        (fun cond sids ->
          List.iter
            (fun sid ->
              match K.find_segment k sid with
              | Some seg ->
                K.monitor_enqueue_blocked k ~obj_addr:addr ~cond
                  ?deadline:(seg_deadline seg) seg
              | None -> fail "move: condition waiter segment %d did not arrive" sid)
            sids)
        o.Marshal.mo_cond_waiters)
    installed;
  {
    ap_objects = List.length payload.Marshal.mp_objects;
    ap_segments = List.length payload.Marshal.mp_segments;
    ap_frames =
      List.fold_left
        (fun acc s -> acc + Mi_frame.frame_count s)
        0 payload.Marshal.mp_segments;
    ap_src_opt = payload.Marshal.mp_opt_level;
    ap_bridged = bridged;
  }
