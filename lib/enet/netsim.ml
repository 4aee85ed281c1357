type config = {
  latency_us : float;
  bandwidth_mbit_s : float;
  frame_overhead_bytes : int;
}

let default_config =
  { latency_us = 300.0; bandwidth_mbit_s = 10.0; frame_overhead_bytes = 58 }

type message = {
  msg_src : int;
  msg_dst : int;
  msg_payload : Wire.view;
  msg_sent_at : float;
  msg_arrives_at : float;
  msg_seq : int;
  (* host-side observability tag: the sender's move-span identity
     (node, seq, start time) riding along so the receiver can close the
     span.  Never on the wire — no bytes, no virtual time, no effect on
     delivery — and None whenever span tracing is off. *)
  msg_span : (int * int * float) option;
}

type fault =
  | Fault_drop
  | Fault_dup of float
  | Fault_delay of float

type t = {
  cfg : config;
  n_nodes : int;
  queues : message Queue.t array;  (* per destination, FIFO (reliable wire) *)
  (* fault-delayed messages and duplicate copies break the queues' sorted-
     by-construction property, so they live in a side list kept sorted by
     (arrival, seq); always empty without an injector, so the fast path
     pays one [[]] comparison *)
  delayed : message list array;
  mutable medium_free_at : float;
  mutable seq : int;
  mutable messages_sent : int;
  mutable bytes_sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed_count : int;
  mutable on_arrival : (dst:int -> at:float -> unit) option;
  mutable injector : (src:int -> dst:int -> now_us:float -> fault option) option;
  mutable on_fault : (src:int -> dst:int -> fault -> unit) option;
}

let create ?(config = default_config) ~n_nodes () =
  {
    cfg = config;
    n_nodes;
    queues = Array.init n_nodes (fun _ -> Queue.create ());
    delayed = Array.make n_nodes [];
    medium_free_at = 0.0;
    seq = 0;
    messages_sent = 0;
    bytes_sent = 0;
    dropped = 0;
    duplicated = 0;
    delayed_count = 0;
    on_arrival = None;
    injector = None;
    on_fault = None;
  }

let config t = t.cfg
let set_on_arrival t f = t.on_arrival <- Some f
let set_injector t f = t.injector <- Some f
let set_on_fault t f = t.on_fault <- Some f

let notify_arrival t ~dst ~at =
  match t.on_arrival with
  | Some f -> f ~dst ~at
  | None -> ()

let notify_fault t ~src ~dst fault =
  match t.on_fault with
  | Some f -> f ~src ~dst fault
  | None -> ()

let insert_delayed t msg =
  let before a b =
    a.msg_arrives_at < b.msg_arrives_at
    || (a.msg_arrives_at = b.msg_arrives_at && a.msg_seq < b.msg_seq)
  in
  let rec ins = function
    | [] -> [ msg ]
    | m :: rest as l -> if before msg m then msg :: l else m :: ins rest
  in
  t.delayed.(msg.msg_dst) <- ins t.delayed.(msg.msg_dst)

(* The shared medium serialises frames: each transmission starts no
   earlier than the previous one finished, and the fixed latency is
   common to all frames, so on a reliable wire arrival times are
   non-decreasing in send order — a plain FIFO per destination is
   already sorted by (arrival, seq).  Appending is O(1), where the seed
   implementation walked a sorted list.  An injected delay or duplicate
   copy is the one thing that can arrive out of order; those are filed
   in the sorted [delayed] side list instead. *)
let send ?span t ~now_us ~src ~dst ~payload =
  if dst < 0 || dst >= t.n_nodes then invalid_arg "Netsim.send: bad destination";
  let wire_bytes = Wire.view_length payload + t.cfg.frame_overhead_bytes in
  let transmit_us = float_of_int (wire_bytes * 8) /. t.cfg.bandwidth_mbit_s in
  let start = Float.max now_us t.medium_free_at in
  let arrives = start +. transmit_us +. t.cfg.latency_us in
  t.medium_free_at <- start +. transmit_us;
  t.seq <- t.seq + 1;
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <- t.bytes_sent + wire_bytes;
  let mk ~arrives ~seq =
    {
      msg_src = src;
      msg_dst = dst;
      msg_payload = payload;
      msg_sent_at = now_us;
      msg_arrives_at = arrives;
      msg_seq = seq;
      msg_span = span;
    }
  in
  let verdict =
    match t.injector with
    | None -> None
    | Some f -> f ~src ~dst ~now_us
  in
  match verdict with
  | None ->
    Queue.add (mk ~arrives ~seq:t.seq) t.queues.(dst);
    notify_arrival t ~dst ~at:arrives;
    arrives
  | Some Fault_drop ->
    (* the frame was transmitted (medium time is spent) and then lost *)
    t.dropped <- t.dropped + 1;
    notify_fault t ~src ~dst Fault_drop;
    arrives
  | Some (Fault_delay extra) ->
    let late = arrives +. extra in
    t.delayed_count <- t.delayed_count + 1;
    insert_delayed t (mk ~arrives:late ~seq:t.seq);
    notify_fault t ~src ~dst (Fault_delay extra);
    notify_arrival t ~dst ~at:late;
    late
  | Some (Fault_dup extra) ->
    Queue.add (mk ~arrives ~seq:t.seq) t.queues.(dst);
    notify_arrival t ~dst ~at:arrives;
    (* the copy is an interface-level duplicate: same octets, delivered a
       little later, charged as a second frame of traffic *)
    t.seq <- t.seq + 1;
    t.duplicated <- t.duplicated + 1;
    t.messages_sent <- t.messages_sent + 1;
    t.bytes_sent <- t.bytes_sent + wire_bytes;
    let late = arrives +. extra in
    insert_delayed t (mk ~arrives:late ~seq:t.seq);
    notify_fault t ~src ~dst (Fault_dup extra);
    notify_arrival t ~dst ~at:late;
    arrives

let earlier (a : message option) (b : message option) =
  match a, b with
  | None, x | x, None -> x
  | Some m, Some d ->
    if
      d.msg_arrives_at < m.msg_arrives_at
      || (d.msg_arrives_at = m.msg_arrives_at && d.msg_seq < m.msg_seq)
    then b
    else a

let head t ~dst =
  earlier
    (Queue.peek_opt t.queues.(dst))
    (match t.delayed.(dst) with [] -> None | m :: _ -> Some m)

let next_arrival_at t ~dst =
  match head t ~dst with
  | None -> None
  | Some m -> Some m.msg_arrives_at

let receive t ~dst ~now_us =
  match head t ~dst with
  | Some m when m.msg_arrives_at <= now_us ->
    (match t.delayed.(dst) with
    | d :: rest when d.msg_seq = m.msg_seq && d.msg_arrives_at = m.msg_arrives_at ->
      t.delayed.(dst) <- rest
    | _ -> ignore (Queue.pop t.queues.(dst)));
    Some m
  | Some _ | None -> None

let pending t =
  Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues
  + Array.fold_left (fun acc l -> acc + List.length l) 0 t.delayed

let messages_sent t = t.messages_sent
let bytes_sent t = t.bytes_sent
let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated
let messages_delayed t = t.delayed_count
