module K = Ert.Kernel
module CS = Enet.Conversion_stats
module CM = Mobility.Cost_model
module M = Mobility.Marshal
module W = Enet.Wire
module E = Events

type protocol =
  | Enhanced
  | Original

(* The envelope (installed only for a non-trivial fault plan).

   With an injector on the wire, frames can be dropped, duplicated or
   delayed, so protocol messages travel in an envelope: a 1-byte tag and
   a 4-byte big-endian per-sender sequence number in front of the
   marshalled payload.  Every data frame is acknowledged (header-only
   ack frame, re-acked on duplicates); the sender retransmits unacked
   messages on engine-scheduled timeouts with bounded exponential
   backoff, and the receiver suppresses (src, seq) pairs it has already
   delivered — exactly-once delivery, or a reported loss after the
   retry budget is spent.  The header is framing, not data: it is
   charged no conversion work, matching the Ethernet/IP framing bytes
   Netsim already accounts.

   Without a fault plan messages travel bare: no acks, and the event
   sequence is bit-identical to a build without the fault subsystem. *)

type pending = {
  p_seq : int;
  p_dst : int;
  p_frame : W.view;  (* the enveloped frame, cached for retransmission *)
  p_msg : M.message;  (* for loss reporting on give-up *)
  p_span : (int * int * float) option;  (* move-span tag, kept across retries *)
  mutable p_attempts : int;  (* transmissions so far *)
  mutable p_next_at : float;  (* retransmission deadline *)
}

let rto_us = 2_000.0 (* initial retransmission timeout *)
let rto_max_us = 32_000.0 (* backoff cap *)
let max_attempts = 8 (* transmissions before the loss is reported *)
let header_bytes = 5

(* tag ('\001' data, '\002' ack), sequence number, payload *)
let frame ~tag ~seq (payload : W.view) =
  let b = Bytes.create (header_bytes + payload.W.vw_len) in
  Bytes.set b 0 tag;
  Bytes.set_int32_be b 1 (Int32.of_int seq);
  Bytes.blit payload.W.vw_bytes payload.W.vw_off b header_bytes payload.W.vw_len;
  W.view_of_string (Bytes.unsafe_to_string b)

let seq_of (v : W.view) =
  Int32.to_int (Bytes.get_int32_be v.W.vw_bytes (v.W.vw_off + 1)) land 0xffff_ffff

let no_payload = W.view_of_string ""

type t = {
  proto : protocol;
  codec : W.impl;  (* the configured tier; Plan under the original protocol *)
  net : Enet.Netsim.t;
  engine : Engine.t;
  bus : E.bus;
  kernels : K.t array;  (* the cluster's, read only here *)
  down : bool array;  (* likewise *)
  conv : CS.t;  (* the conversion work of the en/decode in progress *)
  enveloped : bool;
  next_seq : int array;  (* per-sender sequence numbers *)
  outstanding : (int, pending) Hashtbl.t array;  (* unacked, per sender *)
  seen : (int * int, unit) Hashtbl.t array;  (* (src, seq) delivered, per receiver *)
  lost : M.message -> reason:string -> unit;
  deliver : dst:int -> Enet.Netsim.message -> W.view -> unit;
}

let create ~protocol ~wire_impl ~faults ~net ~engine ~bus ~kernels ~down ~lost ~deliver =
  let n = Array.length kernels in
  let enveloped = not (Fault.Plan.is_trivial faults) in
  if enveloped then begin
    let rng = Fault.Rng.create ~seed:faults.Fault.Plan.pl_seed in
    Enet.Netsim.set_injector net (fun ~src ~dst ~now_us ->
        Fault.Plan.wire_fault faults ~rng ~src ~dst ~now_us);
    Enet.Netsim.set_on_fault net (fun ~src ~dst f ->
        let kind =
          match f with
          | Enet.Netsim.Fault_drop -> "drop"
          | Enet.Netsim.Fault_dup extra -> Printf.sprintf "dup (+%.0fus)" extra
          | Enet.Netsim.Fault_delay extra -> Printf.sprintf "delay (+%.0fus)" extra
        in
        E.emit bus (E.Ev_fault { time = K.time_us kernels.(src); src; dst; kind }))
  end;
  { proto = protocol;
    codec = (match protocol with Enhanced -> wire_impl | Original -> W.Plan);
    net; engine; bus; kernels; down; enveloped; lost; deliver;
    conv = CS.create ();
    next_seq = Array.make n 0;
    outstanding = Array.init n (fun _ -> Hashtbl.create 8);
    seen = Array.init n (fun _ -> Hashtbl.create 64) }

let protocol tr = tr.proto
let enveloped tr = tr.enveloped
let reachable tr i = tr.enveloped || not tr.down.(i)

(* ----------------------------------------------------------------------- *)
(* message events *)

type note =
  | Sent
  | Delivered
  | Lost
  | Drained

(* Message events carry a [Marshal.describe] string, so they are built
   only for a listener; otherwise only the counter moves.  A send is
   stamped with the sender's clock, a delivery with the receiver's. *)
let note tr kind ~src ~dst ~bytes ~arrives msg =
  if E.has_subscribers tr.bus then begin
    let desc = M.describe msg in
    E.emit tr.bus
      (match kind with
      | Sent ->
        E.Ev_msg_send { time = K.time_us tr.kernels.(src); src; dst; desc; bytes; arrives }
      | Delivered -> E.Ev_msg_deliver { time = K.time_us tr.kernels.(dst); node = dst; desc }
      | Lost -> E.Ev_msg_lost { src; dst; desc }
      | Drained -> E.Ev_msg_drop { node = dst; desc })
  end
  else
    match kind with
    | Sent -> E.count_msg tr.bus ~node:src E.Msg_sent
    | Delivered -> E.count_msg tr.bus ~node:dst E.Msg_delivered
    | Lost -> E.count_msg tr.bus ~node:src E.Msg_lost
    | Drained -> E.count_msg tr.bus ~node:dst E.Msg_lost

let delivered tr ~dst msg = note tr Delivered ~src:dst ~dst ~bytes:0 ~arrives:0.0 msg

let give_up tr ~src ~dst msg ~reason =
  note tr Lost ~src ~dst ~bytes:0 ~arrives:0.0 msg;
  tr.lost msg ~reason

let refuse tr ~src ~dst msg =
  give_up tr ~src ~dst msg ~reason:(Printf.sprintf "node %d is down" dst)

(* ----------------------------------------------------------------------- *)
(* the codec and its conversion charging *)

(* The blit tier's common-layout fast path applies to a (src, dst) pair
   when both ends lay out thread state identically.  Source and
   destination evaluate the same deterministic predicate, so no
   per-message capability bit is needed on the wire. *)
let blit_pair tr ~src ~dst =
  match tr.codec with
  | W.Blit ->
    let a = tr.kernels.(src) and b = tr.kernels.(dst) in
    Isa.Arch.same_layout (K.arch a) (K.arch b)
    (* a blitted image replays the source's saved PCs verbatim, so both
       ends must also be running the same code instance: differently-
       optimized instances place their bus stops at different PCs *)
    && Emc.Opt.equal (K.opt_level a) (K.opt_level b)
  | W.Naive | W.Plan -> false

(* the per-object and per-frame translation pass of a move, at either
   end; a blit pair skips it (relocation at the destination still runs:
   addresses differ even when layouts match) *)
let charge_translation tr ~node ~blit (msg : M.message) =
  match tr.proto, msg with
  | Enhanced, (M.M_move p | M.M_group_move p) when not blit ->
    let frames =
      List.fold_left (fun acc s -> acc + Mobility.Mi_frame.frame_count s) 0 p.M.mp_segments
    in
    K.charge_insns tr.kernels.(node)
      ((List.length p.M.mp_objects * CM.object_translate_insns)
      + (frames * CM.frame_translate_insns))
  | _ -> ()

let translate tr ~src ~dst msg =
  charge_translation tr ~node:dst ~blit:(blit_pair tr ~src ~dst) msg

(* An en/decode at [node] runs between [mark] and [settle]: [settle]
   charges the node the conversion (or raw copy) work the scratch
   counters recorded in between. *)
let mark tr = CS.reset tr.conv

let settle tr ~node =
  let calls = CS.calls tr.conv and bytes = CS.bytes tr.conv in
  let k = tr.kernels.(node) in
  (match tr.proto with
  | Enhanced -> K.charge_insns k (calls * CM.per_conversion_call_insns)
  | Original -> K.charge_insns k (bytes * CM.original_copy_insns_per_byte));
  if calls > 0 || bytes > 0 then E.emit tr.bus (E.Ev_conversion { node; calls; bytes })

let decode_payload tr ~src ~dst payload =
  M.decode ~blit:(blit_pair tr ~src ~dst) ~impl:tr.codec ~stats:tr.conv payload

let decode tr ~src ~dst payload =
  mark tr;
  let msg = decode_payload tr ~src ~dst payload in
  settle tr ~node:dst;
  msg

(* ----------------------------------------------------------------------- *)
(* sending *)

(* frame and transmit an encoded payload; the marshal phase began at [t0] *)
let transmit tr ~src ~dst ~root ~t0 msg payload =
  settle tr ~node:src;
  let now = K.time_us tr.kernels.(src) in
  E.span_leg tr.bus root ~node:src ~bytes:(W.view_length payload) ~name:"marshal" ~t0 ~t1:now;
  let span =
    match root with
    | Some { E.root_id = { Obs.Span.id_node; id_seq }; root_t0; _ } ->
      Some (id_node, id_seq, root_t0)
    | None -> None
  in
  let arrival =
    if tr.enveloped then begin
      let seq = tr.next_seq.(src) in
      tr.next_seq.(src) <- seq + 1;
      let frame = frame ~tag:'\001' ~seq payload in
      let arrival = Enet.Netsim.send ?span tr.net ~now_us:now ~src ~dst ~payload:frame in
      let p =
        { p_seq = seq; p_dst = dst; p_frame = frame; p_msg = msg; p_span = span;
          p_attempts = 1; p_next_at = now +. rto_us }
      in
      Hashtbl.replace tr.outstanding.(src) seq p;
      (* the engine holds at most one timer entry per node; if one is
         already queued later than this deadline, the pop will process
         this entry past due and reschedule at the then-earliest — a late
         retransmit, never a lost one *)
      Engine.schedule tr.engine ~at:p.p_next_at Engine.Timer src;
      arrival
    end
    else Enet.Netsim.send ?span tr.net ~now_us:now ~src ~dst ~payload
  in
  let bytes = W.view_length payload + if tr.enveloped then header_bytes else 0 in
  note tr Sent ~src ~dst ~bytes ~arrives:arrival msg;
  E.span_leg tr.bus root ~node:src ~bytes ~name:"transfer" ~t0:now ~t1:arrival

let send tr ~src ~dst ~root msg =
  let k = tr.kernels.(src) in
  let blit = blit_pair tr ~src ~dst in
  (* counted once per outgoing move payload under the blit tier *)
  (match tr.codec, msg with
  | W.Blit, (M.M_move _ | M.M_group_move _) ->
    E.emit tr.bus (E.Ev_blit { node = src; dest = dst; skipped = blit })
  | _ -> ());
  let t_tr0 = match root with Some _ -> K.time_us k | None -> 0.0 in
  charge_translation tr ~node:src ~blit msg;
  let t0 = match root with Some _ -> K.time_us k | None -> 0.0 in
  E.span_leg tr.bus root ~node:src ~bytes:0 ~name:"translate" ~t0:t_tr0 ~t1:t0;
  mark tr;
  match M.encode ~blit ~impl:tr.codec ~stats:tr.conv msg with
  | payload -> transmit tr ~src ~dst ~root ~t0 msg payload
  | exception W.Writer.Oversize what ->
    (* a value the wire format cannot carry: whatever rode on the message
       is lost, and the rest of the cluster runs on *)
    give_up tr ~src ~dst msg
      ~reason:
        (Printf.sprintf "%s does not fit the wire (65535 at most); not sent to node %d" what
           dst)

(* ----------------------------------------------------------------------- *)
(* receiving *)

(* the enveloped receive path: ack every data frame (even duplicates —
   the first ack may itself have been lost), suppress (src, seq) pairs
   already delivered, and clear the sender's retransmission state on ack
   receipt.  A dead interface drains frames silently; the sender's
   retransmission timer decides the message's fate. *)
let receive_enveloped tr ~dst (m : Enet.Netsim.message) =
  let src = m.Enet.Netsim.msg_src and v = m.Enet.Netsim.msg_payload in
  let k = tr.kernels.(dst) in
  let seq = seq_of v in
  match W.view_get v 0 with
  | '\002' ->
    K.set_time_us k m.Enet.Netsim.msg_arrives_at;
    K.charge_us k CM.protocol_fixed_us;
    if Hashtbl.mem tr.outstanding.(dst) seq then begin
      Hashtbl.remove tr.outstanding.(dst) seq;
      E.emit tr.bus (E.Ev_ack { node = dst; seq })
    end
  | '\001' ->
    K.set_time_us k m.Enet.Netsim.msg_arrives_at;
    ignore
      (Enet.Netsim.send tr.net ~now_us:(K.time_us k) ~src:dst ~dst:src
         ~payload:(frame ~tag:'\002' ~seq no_payload)
        : float);
    if Hashtbl.mem tr.seen.(dst) (src, seq) then begin
      K.charge_us k CM.protocol_fixed_us;
      E.emit tr.bus (E.Ev_msg_dup { node = dst; src; seq })
    end
    else begin
      Hashtbl.add tr.seen.(dst) (src, seq) ();
      tr.deliver ~dst m (W.sub_view v ~pos:header_bytes ~len:(W.view_length v - header_bytes))
    end
  | _ -> invalid_arg "Transport: corrupt frame"

let receive tr ~dst ~now =
  match Enet.Netsim.receive tr.net ~dst ~now_us:now with
  | None -> ()
  | Some m when tr.enveloped -> if not tr.down.(dst) then receive_enveloped tr ~dst m
  | Some m when tr.down.(dst) ->
    (* a bare frame at a dead interface is drained, uncharged (its
       decode's tallies sit in the scratch until the next [mark]), and
       whatever rode on it is lost *)
    let src = m.Enet.Netsim.msg_src in
    let msg = decode_payload tr ~src ~dst m.Enet.Netsim.msg_payload in
    note tr Drained ~src ~dst ~bytes:0 ~arrives:0.0 msg;
    tr.lost msg ~reason:(Printf.sprintf "node %d is down" dst)
  | Some m -> tr.deliver ~dst m m.Enet.Netsim.msg_payload

(* ----------------------------------------------------------------------- *)
(* retransmission *)

(* one due deadline: resend with doubled backoff or, with the attempt
   budget spent, report the loss and abort whatever rode on the message *)
let retransmit_due tr i ~now p =
  if p.p_attempts >= max_attempts then begin
    Hashtbl.remove tr.outstanding.(i) p.p_seq;
    give_up tr ~src:i ~dst:p.p_dst p.p_msg
      ~reason:
        (Printf.sprintf "no acknowledgement from node %d after %d attempts" p.p_dst
           p.p_attempts)
  end
  else begin
    p.p_attempts <- p.p_attempts + 1;
    let backoff = Float.min rto_max_us (rto_us *. (2. ** float_of_int (p.p_attempts - 1))) in
    p.p_next_at <- now +. backoff;
    E.emit tr.bus
      (E.Ev_retransmit { node = i; dst = p.p_dst; seq = p.p_seq; attempt = p.p_attempts });
    ignore
      (Enet.Netsim.send ?span:p.p_span tr.net ~now_us:now ~src:i ~dst:p.p_dst
         ~payload:p.p_frame
        : float)
  end

let by_seq a b = compare a.p_seq b.p_seq

let on_timer tr i =
  let tbl = tr.outstanding.(i) in
  if tr.down.(i) || Hashtbl.length tbl = 0 then false
  else begin
    let e = tr.engine in
    let now = Engine.now e in
    let due, later =
      Hashtbl.fold
        (fun _ p (d, l) ->
          if p.p_next_at <= now then (p :: d, l) else (d, Float.min l p.p_next_at))
        tbl ([], infinity)
    in
    match due with
    | [] ->
      if later < infinity then Engine.reschedule e ~at:later Engine.Timer i;
      false
    | due ->
      (* hashtable fold order is unspecified; sequence numbers restore a
         deterministic processing order *)
      List.iter (retransmit_due tr i ~now) (List.sort by_seq due);
      let next = Hashtbl.fold (fun _ p acc -> Float.min acc p.p_next_at) tbl infinity in
      if next < infinity then Engine.schedule e ~at:next Engine.Timer i;
      true
  end

(* ----------------------------------------------------------------------- *)
(* crash and restart *)

(* the dead node's retry state is gone: every message it had not yet
   seen acknowledged may or may not have been delivered — the fail-stop
   uncertainty — so their continuations are reported lost *)
let crash tr i =
  if tr.enveloped && Hashtbl.length tr.outstanding.(i) > 0 then begin
    let entries =
      List.sort by_seq (Hashtbl.fold (fun _ p acc -> p :: acc) tr.outstanding.(i) [])
    in
    Hashtbl.reset tr.outstanding.(i);
    List.iter (fun p -> tr.lost p.p_msg ~reason:(Printf.sprintf "node %d crashed" i)) entries
  end

(* a rebooted receiver remembers no delivered (src, seq) pairs *)
let restart tr i = if tr.enveloped then Hashtbl.reset tr.seen.(i)
