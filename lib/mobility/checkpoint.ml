(* Thread checkpointing through the machine-independent format. *)

module K = Ert.Kernel
module T = Ert.Thread
module W = Enet.Wire

exception Not_checkpointable of string

(* Image format v2: the segment count is a u32.  v1 ("EMC", 0x454d43)
   wrote it as a u16, silently truncating a thread of more than 65535
   segments into an image that parsed cleanly but dropped segments —
   so v2 bumps the magic and v1 images are rejected outright rather
   than misread. *)
let magic = 0x454d4332l (* "EMC2" *)
let magic_v1 = 0x454d43l

let segments_of_thread k ~thread =
  List.filter (fun s -> s.T.seg_thread = thread) (K.segments k)

let check_capturable (seg : T.segment) =
  match seg.T.seg_status with
  | T.Parked s when Isa.Suspend.wire_encodable s -> ()
  | T.Parked _ -> raise (Not_checkpointable "segment carries a CPU-only suspension")
  | T.Running -> raise (Not_checkpointable "segment is running")
  | T.Blocked_monitor _ ->
    raise (Not_checkpointable "segment is queued on a monitor; move the object instead")
  | T.Awaiting_reply _ ->
    raise (Not_checkpointable "segment awaits a remote reply; quiesce the thread first")
  | T.Dead -> raise (Not_checkpointable "segment is dead")

let to_mi k (seg : T.segment) : Mi_frame.mi_segment =
  let frames =
    match seg.T.seg_spawn with
    | Some _ -> []
    | None -> List.map (Translate.capture_frame k) (Ert.Frame_walk.walk k seg)
  in
  {
    Mi_frame.ms_seg_id = seg.T.seg_id;
    ms_thread = seg.T.seg_thread;
    ms_status = Translate.status_to_mi k seg;
    ms_frames = frames;
    ms_link = seg.T.seg_link;
    ms_result_type = seg.T.seg_result_type;
    ms_spawn = seg.T.seg_spawn;
  }

let capture k ~thread =
  let segs = segments_of_thread k ~thread in
  if segs = [] then raise (Not_checkpointable "thread has no segments on this node");
  List.iter check_capturable segs;
  List.iter
    (fun (s : T.segment) ->
      if s.T.seg_link <> None then
        raise (Not_checkpointable "thread spans several nodes"))
    segs;
  let stats = Enet.Conversion_stats.create () in
  let w = W.Writer.create ~impl:W.Plan ~stats in
  W.Writer.u32 w magic;
  W.Writer.u32 w (Int32.of_int (List.length segs));
  let mis = List.map (to_mi k) segs in
  List.iter (Mi_frame.write_segment w) mis;
  (* translation is charged like an outbound move, once per frame *)
  List.iter
    (fun ms -> K.charge_insns k (Mi_frame.frame_count ms * Cost_model.frame_translate_insns))
    mis;
  W.Writer.contents w

let suspend k ~thread =
  let image = capture k ~thread in
  List.iter (K.retire_segment k) (segments_of_thread k ~thread);
  image

(* an image can hold at most this many segments before we call it
   corrupt rather than large — a plausibility bound, not a format
   limit, protecting [List.init] from an insane length prefix *)
let max_segments = 1_000_000

let parse image =
  let stats = Enet.Conversion_stats.create () in
  let r = W.Reader.create ~impl:W.Plan ~stats image in
  let m = W.Reader.u32 r in
  if m = magic_v1 then
    invalid_arg "Checkpoint.parse: v1 image (u16 segment count) not supported";
  if m <> magic then invalid_arg "Checkpoint.parse: bad magic";
  let n = Int32.to_int (W.Reader.u32 r) in
  if n < 0 || n > max_segments then
    invalid_arg (Printf.sprintf "Checkpoint.parse: unreasonable segment count %d" n);
  List.init n (fun _ -> Mi_frame.read_segment r)

let restore k image =
  let segs = parse image in
  (* All validation happens before any segment is rebuilt, so a refused
     restore leaves the kernel exactly as it was.  (An earlier revision
     checked each segment id inside the rebuild loop: a collision on the
     second segment left the first one registered.) *)
  List.iter
    (fun (ms : Mi_frame.mi_segment) ->
      List.iter
        (fun (f : Mi_frame.mi_frame) ->
          match K.find_object k f.Mi_frame.mf_self with
          | Some addr when K.is_resident k addr -> ()
          | _ ->
            raise
              (Not_checkpointable
                 (Printf.sprintf "object %ld of a checkpointed frame is not resident"
                    (f.Mi_frame.mf_self :> int32))))
        ms.Mi_frame.ms_frames)
    segs;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (ms : Mi_frame.mi_segment) ->
      let id = ms.Mi_frame.ms_seg_id in
      if K.find_segment k id <> None then
        raise (Not_checkpointable "a segment with this id is already registered");
      if Hashtbl.mem seen id then
        raise (Not_checkpointable "image contains duplicate segment ids");
      Hashtbl.add seen id ())
    segs;
  List.iter
    (fun (ms : Mi_frame.mi_segment) ->
      let seg = Translate.rebuild_segment k ms in
      K.charge_insns k
        (List.length ms.Mi_frame.ms_frames * Cost_model.frame_translate_insns);
      ignore seg)
    segs

let thread_of image =
  match parse image with
  | [] -> invalid_arg "Checkpoint.thread_of: empty image"
  | ms :: _ -> ms.Mi_frame.ms_thread
