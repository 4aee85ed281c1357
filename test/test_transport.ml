(* The transport on its own: two kernels, a two-node Netsim and an
   engine, stepped by hand with no Cluster.  Pins the envelope's
   retransmission schedule, its single loss report, and duplicate
   suppression with the acks it sends. *)

module M = Mobility.Marshal
module E = Core.Events
module Eng = Core.Engine
module Tr = Core.Transport

let check = Alcotest.check

type rig = {
  tr : Tr.t;
  net : Enet.Netsim.t;
  engine : Eng.t;
  sends : float list ref;  (* engine or sender time of every transmission, newest first *)
  acks : int ref;  (* acks the sender recorded *)
  dups : int ref;  (* duplicates the receiver suppressed *)
  lost : (float * string) list ref;  (* loss reports: engine time, reason *)
  deliveries : int ref;
}

(* Two SPARC nodes under a plan that switches the envelope on.  [inject]
   replaces the plan's injector, so each test decides the wire's
   verdicts itself. *)
let make_rig ~inject =
  let kernels = Array.init 2 (fun i -> Ert.Kernel.create ~node_id:i ~arch:Isa.Arch.sparc ()) in
  let net = Enet.Netsim.create ~n_nodes:2 () in
  let engine = Eng.create ~n_nodes:2 () in
  let bus = E.create_bus ~n_nodes:2 in
  let lost = ref [] and deliveries = ref 0 in
  let tr =
    Tr.create ~protocol:Tr.Enhanced ~wire_impl:Enet.Wire.Naive
      ~faults:(Fault.Plan.make ~drop:1.0 ()) ~net ~engine ~bus ~kernels
      ~down:(Array.make 2 false)
      ~lost:(fun _ ~reason -> lost := (Eng.now engine, reason) :: !lost)
      ~deliver:(fun ~dst:_ _ _ -> incr deliveries)
  in
  Enet.Netsim.set_injector net inject;
  Enet.Netsim.set_on_arrival net (fun ~dst ~at -> Eng.schedule engine ~at Eng.Deliver dst);
  let sends = ref [] and acks = ref 0 and dups = ref 0 in
  E.subscribe bus (function
    | E.Ev_msg_send { time; _ } -> sends := time :: !sends
    | E.Ev_retransmit _ -> sends := Eng.now engine :: !sends
    | E.Ev_ack _ -> incr acks
    | E.Ev_msg_dup _ -> incr dups
    | _ -> ());
  { tr; net; engine; sends; acks; dups; lost; deliveries }

(* the engine loop, reduced to the two event kinds a transport raises *)
let rec drain r =
  if not (Eng.is_empty r.engine) then begin
    let rk = Eng.take r.engine in
    let i = Eng.node rk in
    (match Eng.kind rk with
    | Eng.Timer -> ignore (Tr.on_timer r.tr i : bool)
    | Eng.Deliver -> (
      Tr.receive r.tr ~dst:i ~now:(Eng.now r.engine);
      match Enet.Netsim.next_arrival_at r.net ~dst:i with
      | Some at -> Eng.schedule r.engine ~at:(Float.max at (Eng.now r.engine)) Eng.Deliver i
      | None -> ())
    | Eng.Step | Eng.Wake | Eng.Gc | Eng.Chaos -> ());
    drain r
  end

let send_probe r =
  Tr.send r.tr ~src:0 ~dst:1 ~root:None
    (M.M_locate { obj = Ert.Oid.fresh_data ~node_id:0 ~serial:1 })

let test_every_frame_dropped () =
  let r = make_rig ~inject:(fun ~src:_ ~dst:_ ~now_us:_ -> Some Enet.Netsim.Fault_drop) in
  send_probe r;
  drain r;
  let sends = List.rev !(r.sends) in
  let t0 = List.hd sends in
  let ms t = Float.round ((t -. t0) /. 1000.0) in
  check (Alcotest.list (Alcotest.float 0.0)) "transmissions, ms after the first"
    [ 0.; 2.; 6.; 14.; 30.; 62.; 94.; 126. ]
    (List.map ms sends);
  check Alcotest.int "frames on the wire" 8 (Enet.Netsim.messages_sent r.net);
  check Alcotest.int "frames dropped" 8 (Enet.Netsim.messages_dropped r.net);
  match !(r.lost) with
  | [ (at, reason) ] ->
    check (Alcotest.float 0.0) "loss reported at +158 ms" 158.0 (ms at);
    check Alcotest.string "loss reason"
      "no acknowledgement from node 1 after 8 attempts" reason;
    check Alcotest.int "nothing delivered" 0 !(r.deliveries)
  | l -> Alcotest.failf "%d loss reports, expected exactly one" (List.length l)

let test_duplicate_suppressed () =
  (* the first data frame from node 0 arrives twice, 100 us apart; every
     other frame, acks included, travels clean *)
  let duplicated = ref false and acks_sent = ref 0 in
  let inject ~src ~dst:_ ~now_us:_ =
    if src = 1 then incr acks_sent;
    if src = 0 && not !duplicated then begin
      duplicated := true;
      Some (Enet.Netsim.Fault_dup 100.0)
    end
    else None
  in
  let r = make_rig ~inject in
  send_probe r;
  drain r;
  check Alcotest.int "delivered once" 1 !(r.deliveries);
  check Alcotest.int "duplicate suppressed" 1 !(r.dups);
  check Alcotest.int "receiver acked both copies" 2 !acks_sent;
  check Alcotest.int "sender recorded one ack" 1 !(r.acks);
  check Alcotest.int "no retransmission" 1 (List.length !(r.sends));
  check Alcotest.int "no loss" 0 (List.length !(r.lost))

let suites =
  [
    ( "transport",
      [
        Alcotest.test_case "every frame dropped: backoff and one loss" `Quick
          test_every_frame_dropped;
        Alcotest.test_case "one frame duplicated: one delivery, one ack" `Quick
          test_duplicate_suppressed;
      ] );
  ]
