module W = Enet.Wire.Writer
module R = Enet.Wire.Reader
module V = Ert.Value

type mi_frame = {
  mf_class : int;
  mf_code_oid : int32;
  mf_method : int;
  mf_stop : int;
  mf_slots : int array;
  mf_tags : Bytes.t;
  mf_words : int array;
  mf_boxed : Ert.Value.t array;
  mf_self : Ert.Oid.t;
}

type mi_status =
  | Ms_parked of Ert.Thread.resume
  | Ms_awaiting_reply of int
  | Ms_blocked_monitor of {
      mon : Ert.Oid.t;
      in_queue : bool;
      cond : int;
      deadline : float option;
    }

type mi_segment = {
  ms_seg_id : int;
  ms_thread : int;
  ms_status : mi_status;
  ms_frames : mi_frame list;
  ms_link : Ert.Thread.link option;
  ms_result_type : Emc.Ast.typ option;
  ms_spawn : Ert.Thread.spawn_info option;
}

(* types travel in the shared Value codec *)
let write_typ = Ert.Value.write_typ
let read_typ = Ert.Value.read_typ

let write_opt w f = function
  | None -> W.u8 w 0
  | Some x ->
    W.u8 w 1;
    f w x

let read_opt r f =
  match R.u8 r with
  | 0 -> None
  | 1 -> Some (f r)
  | n -> failwith (Printf.sprintf "Mi_frame.read_opt: corrupt tag %d" n)

let is_boxed_tag tag = tag = V.tag_real || tag = V.tag_str || tag = V.tag_vec

(* Each frame is one record of the batched accounting (the §4 fast path
   for layout-matched pairs): one conversion call over its bytes instead
   of one per datum.  A live value goes out exactly as [Value.write]
   would write it, the unboxed ones straight from their words. *)
let write_frame w f =
  let p = W.open_record w in
  W.u16 w f.mf_class;
  W.u32 w f.mf_code_oid;
  W.u16 w f.mf_method;
  W.u16 w f.mf_stop;
  W.u32 w f.mf_self;
  let n = Array.length f.mf_slots in
  W.u16 w n;
  for i = 0 to n - 1 do
    W.u16 w f.mf_slots.(i);
    let tag = Bytes.get_uint8 f.mf_tags i and word = f.mf_words.(i) in
    if is_boxed_tag tag then V.write w f.mf_boxed.(word)
    else begin
      W.u8 w tag;
      if tag = V.tag_int || tag = V.tag_ref then W.i32_bits w word
      else if tag = V.tag_bool then W.u8 w word
    end
  done;
  W.close_record w p

let read_frame r =
  let p = R.open_record r in
  let mf_class = R.u16 r in
  let mf_code_oid = R.u32 r in
  let mf_method = R.u16 r in
  let mf_stop = R.u16 r in
  let mf_self = R.u32 r in
  let n = R.u16 r in
  let mf_slots = Array.make n 0 and mf_tags = Bytes.make n '\000' and mf_words = Array.make n 0 in
  let boxed = ref [] and nboxed = ref 0 in
  for i = 0 to n - 1 do
    mf_slots.(i) <- R.u16 r;
    let tag = R.u8 r in
    Bytes.set_uint8 mf_tags i tag;
    if tag = V.tag_int || tag = V.tag_ref then mf_words.(i) <- R.i32_bits r
    else if tag = V.tag_bool then mf_words.(i) <- Bool.to_int (R.bool r)
    else if tag <> V.tag_nil then begin
      boxed := V.read_tagged r tag :: !boxed;
      mf_words.(i) <- !nboxed;
      incr nboxed
    end
  done;
  R.close_record r p;
  let mf_boxed = Array.of_list (List.rev !boxed) in
  { mf_class; mf_code_oid; mf_method; mf_stop; mf_slots; mf_tags; mf_words; mf_boxed; mf_self }

(* a resume keeps its v2 tag 1-4; a result held as a word writes the
   [Complete (Some v)] it stands for *)
let write_suspension w (s : Ert.Thread.resume) =
  match s with
  | Ert.Thread.Run -> W.u8 w 1
  | Ert.Thread.Deliver v ->
    W.u8 w 2;
    V.write w v
  | Ert.Thread.Complete v ->
    W.u8 w 3;
    write_opt w V.write v
  | Ert.Thread.Complete_word (wd, bits) ->
    W.u8 w 3;
    write_opt w V.write (Some (V.of_word wd bits))
  | Ert.Thread.Complete_dequeue sid ->
    W.u8 w 4;
    write_opt w (fun w s -> W.i32 w (Int32.of_int s)) sid

let read_suspension r : Ert.Thread.resume =
  match R.u8 r with
  | 1 -> Ert.Thread.Run
  | 2 -> Ert.Thread.Deliver (V.read r)
  | 3 -> Ert.Thread.Complete (read_opt r V.read)
  | 4 -> Ert.Thread.Complete_dequeue (read_opt r (fun r -> Int32.to_int (R.i32 r)))
  | n -> failwith (Printf.sprintf "Mi_frame.read_suspension: corrupt tag %d" n)

let write_status w = function
  | Ms_parked s ->
    W.u8 w 1;
    write_suspension w s
  | Ms_awaiting_reply stop ->
    W.u8 w 2;
    W.u16 w stop
  | Ms_blocked_monitor { mon; in_queue; cond; deadline = None } ->
    (* tag 3 is the v2 no-deadline encoding, kept byte-identical *)
    W.u8 w 3;
    W.u32 w mon;
    W.bool w in_queue;
    W.i32 w (Int32.of_int cond)
  | Ms_blocked_monitor { mon; in_queue; cond; deadline = Some d } ->
    W.u8 w 4;
    W.u32 w mon;
    W.bool w in_queue;
    W.i32 w (Int32.of_int cond);
    W.f64 w d

let read_status r =
  match R.u8 r with
  | 1 -> Ms_parked (read_suspension r)
  | 2 -> Ms_awaiting_reply (R.u16 r)
  | 3 ->
    let mon = R.u32 r in
    let in_queue = R.bool r in
    let cond = Int32.to_int (R.i32 r) in
    Ms_blocked_monitor { mon; in_queue; cond; deadline = None }
  | 4 ->
    let mon = R.u32 r in
    let in_queue = R.bool r in
    let cond = Int32.to_int (R.i32 r) in
    let deadline = R.f64 r in
    Ms_blocked_monitor { mon; in_queue; cond; deadline = Some deadline }
  | n -> failwith (Printf.sprintf "Mi_frame.read_status: corrupt tag %d" n)

let write_link w (l : Ert.Thread.link) =
  W.u16 w l.Ert.Thread.ln_node;
  W.i32 w (Int32.of_int l.Ert.Thread.ln_seg)

let read_link r =
  let ln_node = R.u16 r in
  let ln_seg = Int32.to_int (R.i32 r) in
  { Ert.Thread.ln_node; ln_seg }

let write_spawn w (s : Ert.Thread.spawn_info) =
  W.u32 w s.Ert.Thread.si_target;
  W.u16 w s.Ert.Thread.si_class;
  W.u16 w s.Ert.Thread.si_method;
  W.u16 w (List.length s.Ert.Thread.si_args);
  List.iter (Ert.Value.write w) s.Ert.Thread.si_args

let read_spawn r =
  let si_target = R.u32 r in
  let si_class = R.u16 r in
  let si_method = R.u16 r in
  let n = R.u16 r in
  let si_args = List.init n (fun _ -> Ert.Value.read r) in
  { Ert.Thread.si_target; si_class; si_method; si_args }

(* A segment is three kinds of record: the scaffold before the frames,
   each frame, and the trailing options. *)
let write_segment w s =
  let p = W.open_record w in
  W.i32 w (Int32.of_int s.ms_seg_id);
  W.i32 w (Int32.of_int s.ms_thread);
  write_status w s.ms_status;
  W.u16 w (List.length s.ms_frames);
  W.close_record w p;
  List.iter (write_frame w) s.ms_frames;
  let p = W.open_record w in
  write_opt w write_link s.ms_link;
  write_opt w write_typ s.ms_result_type;
  write_opt w write_spawn s.ms_spawn;
  W.close_record w p

let read_segment r =
  let p = R.open_record r in
  let ms_seg_id = Int32.to_int (R.i32 r) in
  let ms_thread = Int32.to_int (R.i32 r) in
  let ms_status = read_status r in
  let n = R.u16 r in
  R.close_record r p;
  let ms_frames = List.init n (fun _ -> read_frame r) in
  let p = R.open_record r in
  let ms_link = read_opt r read_link in
  let ms_result_type = read_opt r read_typ in
  let ms_spawn = read_opt r read_spawn in
  R.close_record r p;
  { ms_seg_id; ms_thread; ms_status; ms_frames; ms_link; ms_result_type; ms_spawn }

let frame_count s = List.length s.ms_frames
