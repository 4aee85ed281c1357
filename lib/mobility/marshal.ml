module W = Enet.Wire.Writer
module R = Enet.Wire.Reader

type move_object = {
  mo_oid : Ert.Oid.t;
  mo_class : int;
  mo_fields : Ert.Value.t array;
  mo_locked : bool;
  mo_waiters : int list;
  mo_cond_waiters : int list list;
}

type move_payload = {
  mp_src : int;
  mp_opt_level : int;
      (* optimization level of the source node's code instance (Opt.to_int);
         0 rides the historical tags so default-level wire streams stay
         byte-identical, like the location tags *)
  mp_objects : move_object list;
  mp_segments : Mi_frame.mi_segment list;
}

type message =
  | M_invoke of {
      target : Ert.Oid.t;
      callee_class : int;
      callee_method : int;
      args : Ert.Value.t list;
      reply : Ert.Thread.link;
      thread : int;
      forwards : int;
    }
  | M_reply of {
      to_seg : int;
      value : Ert.Value.t;
      thread : int;
    }
  | M_move_req of {
      obj : Ert.Oid.t;
      dest : int;
      forwards : int;
    }
  | M_move of move_payload
  | M_start_process of {
      obj : Ert.Oid.t;
      forwards : int;
    }
  | M_locate of { obj : Ert.Oid.t }
  | M_located of {
      obj : Ert.Oid.t;
      found : bool;
    }
  (* location-subsystem traffic (tags 8..13): produced only when a
     location mode is enabled on the cluster, so the directory-off wire
     stream never contains these tags and stays byte-identical *)
  | M_dir_update of { objs : Ert.Oid.t list; node : int; at : float }
  | M_dir_lookup of { obj : Ert.Oid.t }
  | M_dir_reply of { obj : Ert.Oid.t; node : int; known : bool }
  | M_loc_hint of { obj : Ert.Oid.t; node : int }
  | M_invoke_via of { via : int list; inv : message }
  | M_group_move of move_payload

let tag_invoke = 1
let tag_reply = 2
let tag_move_req = 3
let tag_move = 4
let tag_locate = 5
let tag_located = 6
let tag_start_process = 7
let tag_dir_update = 8
let tag_dir_lookup = 9
let tag_dir_reply = 10
let tag_loc_hint = 11
let tag_invoke_via = 12
let tag_group_move = 13

(* cross-instance moves (source node not at the default -O0 instance):
   same body as tag_move/tag_group_move plus a leading opt-level byte.
   Emitted only by opt-level-configured clusters, so the default wire
   stream never contains these tags and stays byte-identical. *)
let tag_move_at = 14
let tag_group_move_at = 15

let write_list w f xs =
  W.u16 w (List.length xs);
  List.iter (f w) xs

let read_list r f =
  let n = R.u16 r in
  List.init n (fun _ -> f r)

let write_fields w o =
  W.u16 w (Array.length o.mo_fields);
  Array.iter (Ert.Value.write w) o.mo_fields

let write_int w s = W.i32 w (Int32.of_int s)
let read_int r = Int32.to_int (R.i32 r)

(* each object is one record of the batched accounting *)
let write_object w o =
  let p = W.open_record w in
  W.u32 w o.mo_oid;
  W.u16 w o.mo_class;
  write_fields w o;
  W.bool w o.mo_locked;
  write_list w write_int o.mo_waiters;
  write_list w (fun w l -> write_list w write_int l) o.mo_cond_waiters;
  W.close_record w p

let read_fields r =
  let n = R.u16 r in
  let fields = Array.make n Ert.Value.Vnil in
  for i = 0 to n - 1 do
    fields.(i) <- Ert.Value.read r
  done;
  fields

let read_object r =
  let p = R.open_record r in
  let mo_oid = R.u32 r in
  let mo_class = R.u16 r in
  let mo_fields = read_fields r in
  let mo_locked = R.bool r in
  let mo_waiters = read_list r read_int in
  let mo_cond_waiters = read_list r (fun r -> read_list r read_int) in
  R.close_record r p;
  { mo_oid; mo_class; mo_fields; mo_locked; mo_waiters; mo_cond_waiters }

(* The move header (tag, source, and the level on the cross-instance
   tags) is one record, so a batched encode charges the tag inside it;
   the decoder has read the tag per datum before it knows the message
   is a move. *)
let write_move w ~tag p =
  let h = W.open_record w in
  W.u8 w tag;
  W.u16 w p.mp_src;
  if p.mp_opt_level <> 0 then W.u8 w p.mp_opt_level;
  W.close_record w h;
  write_list w write_object p.mp_objects;
  write_list w Mi_frame.write_segment p.mp_segments

let read_move ~leveled r =
  let h = R.open_record r in
  let mp_src = R.u16 r in
  let mp_opt_level = if leveled then R.u8 r else 0 in
  R.close_record r h;
  let mp_objects = read_list r read_object in
  let mp_segments = read_list r Mi_frame.read_segment in
  { mp_src; mp_opt_level; mp_objects; mp_segments }

let rec encode_to w msg =
  match msg with
  | M_invoke { target; callee_class; callee_method; args; reply; thread; forwards } ->
    W.u8 w tag_invoke;
    W.u32 w target;
    W.u16 w callee_class;
    W.u16 w callee_method;
    write_list w Ert.Value.write args;
    W.u16 w reply.Ert.Thread.ln_node;
    W.i32 w (Int32.of_int reply.Ert.Thread.ln_seg);
    W.i32 w (Int32.of_int thread);
    W.u8 w forwards
  | M_reply { to_seg; value; thread } ->
    W.u8 w tag_reply;
    W.i32 w (Int32.of_int to_seg);
    Ert.Value.write w value;
    W.i32 w (Int32.of_int thread)
  | M_move_req { obj; dest; forwards } ->
    W.u8 w tag_move_req;
    W.u32 w obj;
    W.u16 w dest;
    W.u8 w forwards
  | M_move p ->
    write_move w ~tag:(if p.mp_opt_level = 0 then tag_move else tag_move_at) p
  | M_start_process { obj; forwards } ->
    W.u8 w tag_start_process;
    W.u32 w obj;
    W.u8 w forwards
  | M_locate { obj } ->
    W.u8 w tag_locate;
    W.u32 w obj
  | M_located { obj; found } ->
    W.u8 w tag_located;
    W.u32 w obj;
    W.bool w found
  | M_dir_update { objs; node; at } ->
    W.u8 w tag_dir_update;
    W.u16 w node;
    W.f64 w at;
    write_list w W.u32 objs
  | M_dir_lookup { obj } ->
    W.u8 w tag_dir_lookup;
    W.u32 w obj
  | M_dir_reply { obj; node; known } ->
    W.u8 w tag_dir_reply;
    W.u32 w obj;
    W.u16 w node;
    W.bool w known
  | M_loc_hint { obj; node } ->
    W.u8 w tag_loc_hint;
    W.u32 w obj;
    W.u16 w node
  | M_invoke_via { via; inv } ->
    (* a chain-walking invoke: the hop trail rides in front of the
       unchanged inner message encoding *)
    W.u8 w tag_invoke_via;
    write_list w W.u16 via;
    encode_to w inv
  | M_group_move p ->
    (* same body layout as M_move; the distinct tag tells the receiver
       to account the transfer as one batched group *)
    write_move w
      ~tag:(if p.mp_opt_level = 0 then tag_group_move else tag_group_move_at)
      p

let encode ?(blit = false) ~impl ~stats msg =
  let w = W.create ~impl ~stats in
  if blit then W.batch w;
  encode_to w msg;
  W.handoff w

let rec decode_from r =
  let tag = R.u8 r in
  if tag = tag_invoke then begin
    let target = R.u32 r in
    let callee_class = R.u16 r in
    let callee_method = R.u16 r in
    let args = read_list r Ert.Value.read in
    let ln_node = R.u16 r in
    let ln_seg = Int32.to_int (R.i32 r) in
    let thread = Int32.to_int (R.i32 r) in
    let forwards = R.u8 r in
    M_invoke
      {
        target;
        callee_class;
        callee_method;
        args;
        reply = { Ert.Thread.ln_node; ln_seg };
        thread;
        forwards;
      }
  end
  else if tag = tag_reply then begin
    let to_seg = Int32.to_int (R.i32 r) in
    let value = Ert.Value.read r in
    let thread = Int32.to_int (R.i32 r) in
    M_reply { to_seg; value; thread }
  end
  else if tag = tag_move_req then begin
    let obj = R.u32 r in
    let dest = R.u16 r in
    let forwards = R.u8 r in
    M_move_req { obj; dest; forwards }
  end
  else if tag = tag_move || tag = tag_move_at then
    M_move (read_move ~leveled:(tag = tag_move_at) r)
  else if tag = tag_start_process then begin
    let obj = R.u32 r in
    let forwards = R.u8 r in
    M_start_process { obj; forwards }
  end
  else if tag = tag_locate then M_locate { obj = R.u32 r }
  else if tag = tag_located then begin
    let obj = R.u32 r in
    let found = R.bool r in
    M_located { obj; found }
  end
  else if tag = tag_dir_update then begin
    let node = R.u16 r in
    let at = R.f64 r in
    let objs = read_list r R.u32 in
    M_dir_update { objs; node; at }
  end
  else if tag = tag_dir_lookup then M_dir_lookup { obj = R.u32 r }
  else if tag = tag_dir_reply then begin
    let obj = R.u32 r in
    let node = R.u16 r in
    let known = R.bool r in
    M_dir_reply { obj; node; known }
  end
  else if tag = tag_loc_hint then begin
    let obj = R.u32 r in
    let node = R.u16 r in
    M_loc_hint { obj; node }
  end
  else if tag = tag_invoke_via then begin
    let via = read_list r R.u16 in
    let inv = decode_from r in
    M_invoke_via { via; inv }
  end
  else if tag = tag_group_move || tag = tag_group_move_at then
    M_group_move (read_move ~leveled:(tag = tag_group_move_at) r)
  else failwith (Printf.sprintf "Marshal.decode: corrupt message tag %d" tag)

let decode ?(blit = false) ~impl ~stats v =
  let r = R.of_view ~impl ~stats v in
  if blit then R.batch r;
  decode_from r

let rec describe = function
  | M_invoke { target; callee_method; _ } ->
    Printf.sprintf "invoke %s.m%d" (Ert.Oid.to_string target) callee_method
  | M_reply { to_seg; _ } -> Printf.sprintf "reply to segment %d" to_seg
  | M_move_req { obj; dest; _ } ->
    Printf.sprintf "move request %s -> node %d" (Ert.Oid.to_string obj) dest
  | M_move { mp_objects; mp_segments; _ } ->
    Printf.sprintf "move of %d object(s), %d thread segment(s)"
      (List.length mp_objects) (List.length mp_segments)
  | M_start_process { obj; _ } ->
    Printf.sprintf "start process of %s" (Ert.Oid.to_string obj)
  | M_locate { obj } -> Printf.sprintf "locate %s?" (Ert.Oid.to_string obj)
  | M_located { obj; found } ->
    Printf.sprintf "located %s: %s" (Ert.Oid.to_string obj)
      (if found then "here" else "not here")
  | M_dir_update { objs; node; _ } ->
    Printf.sprintf "directory update: %d object(s) now at node %d"
      (List.length objs) node
  | M_dir_lookup { obj } -> Printf.sprintf "directory lookup %s?" (Ert.Oid.to_string obj)
  | M_dir_reply { obj; node; known } ->
    if known then
      Printf.sprintf "directory reply %s: node %d" (Ert.Oid.to_string obj) node
    else Printf.sprintf "directory reply %s: unknown" (Ert.Oid.to_string obj)
  | M_loc_hint { obj; node } ->
    Printf.sprintf "location hint %s -> node %d" (Ert.Oid.to_string obj) node
  | M_invoke_via { via; inv } ->
    Printf.sprintf "%s (via %d hop(s))" (describe inv) (List.length via)
  | M_group_move { mp_objects; mp_segments; _ } ->
    Printf.sprintf "group move of %d object(s), %d thread segment(s)"
      (List.length mp_objects) (List.length mp_segments)
