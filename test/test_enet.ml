(* Tests for the network layer: wire codecs and the Ethernet simulation. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let roundtrip_gen =
  QCheck.quad QCheck.int32
    (QCheck.map
       (fun (m, e) -> Float.ldexp (Float.of_int m) e)
       (QCheck.pair (QCheck.int_range (-100000) 100000) (QCheck.int_range (-30) 30)))
    QCheck.bool
    (QCheck.string_of_size (QCheck.Gen.int_range 0 200))

(* The blit tier writes its datums as one batched record, which costs
   one conversion call over all of its bytes at each end *)
let write_case impl (i, f, b, s) =
  let stats = Enet.Conversion_stats.create () in
  let w = Enet.Wire.Writer.create ~impl ~stats in
  if impl = Enet.Wire.Blit then Enet.Wire.Writer.batch w;
  let p = Enet.Wire.Writer.open_record w in
  Enet.Wire.Writer.i32 w i;
  Enet.Wire.Writer.f64 w f;
  Enet.Wire.Writer.bool w b;
  Enet.Wire.Writer.str w s;
  Enet.Wire.Writer.close_record w p;
  (w, stats)

(* Each case round-trips under [impl], and the other two tiers write
   the same datums as the same octets *)
let roundtrip impl =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s codec round trip" (Enet.Wire.impl_name impl))
    ~count:300 roundtrip_gen
    (fun ((i, f, b, s) as case) ->
      let batched = impl = Enet.Wire.Blit in
      let w, stats = write_case impl case in
      let bytes = Enet.Wire.Writer.contents w in
      let rstats = Enet.Conversion_stats.create () in
      let r = Enet.Wire.Reader.create ~impl ~stats:rstats bytes in
      if batched then Enet.Wire.Reader.batch r;
      let p = Enet.Wire.Reader.open_record r in
      let ok =
        Int32.equal (Enet.Wire.Reader.i32 r) i
        && Enet.Wire.Reader.f64 r = f
        && Enet.Wire.Reader.bool r = b
        && String.equal (Enet.Wire.Reader.str r) s
      in
      Enet.Wire.Reader.close_record r p;
      let same_octets other =
        let w', _ = write_case other case in
        String.equal (Enet.Wire.Writer.contents w') bytes
      in
      let calls = Enet.Conversion_stats.calls in
      ok
      && Enet.Wire.Reader.at_end r
      && calls stats = calls rstats
      && ((not batched) || calls stats = 1)
      && Enet.Conversion_stats.bytes stats = Enet.Wire.Writer.length w
      && List.for_all same_octets
           (List.filter (fun t -> t <> impl) [ Enet.Wire.Naive; Enet.Wire.Plan; Enet.Wire.Blit ]))

let test_network_byte_order () =
  let stats = Enet.Conversion_stats.create () in
  let w = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  Enet.Wire.Writer.u32 w 0x01020304l;
  let s = Enet.Wire.Writer.contents w in
  check Alcotest.string "big endian on the wire" "\x01\x02\x03\x04" s

let test_impls_agree () =
  let emit impl =
    let stats = Enet.Conversion_stats.create () in
    let w = Enet.Wire.Writer.create ~impl ~stats in
    Enet.Wire.Writer.u16 w 7;
    Enet.Wire.Writer.i32 w (-42l);
    Enet.Wire.Writer.f64 w 3.25;
    Enet.Wire.Writer.str w "emerald";
    (Enet.Wire.Writer.contents w, Enet.Conversion_stats.calls stats)
  in
  let naive_bytes, naive_calls = emit Enet.Wire.Naive in
  let plan_bytes, plan_calls = emit Enet.Wire.Plan in
  let blit_bytes, blit_calls = emit Enet.Wire.Blit in
  check Alcotest.string "identical octets" naive_bytes plan_bytes;
  check Alcotest.string "blit tier identical octets" naive_bytes blit_bytes;
  check Alcotest.int "unbatched blit charges like plan" plan_calls blit_calls;
  if naive_calls <= plan_calls then
    Alcotest.failf "naive (%d calls) should cost more than plan (%d)" naive_calls
      plan_calls

let test_calls_per_byte () =
  (* the paper: an average of 1-2 conversion calls per byte *)
  let stats = Enet.Conversion_stats.create () in
  let w = Enet.Wire.Writer.create ~impl:Enet.Wire.Naive ~stats in
  for i = 0 to 99 do
    Enet.Wire.Writer.i32 w (Int32.of_int i)
  done;
  let cpb = Enet.Conversion_stats.calls_per_byte stats in
  if cpb < 1.0 || cpb > 2.0 then
    Alcotest.failf "naive conversion should cost 1-2 calls/byte, got %.2f" cpb

let test_reader_underflow () =
  let stats = Enet.Conversion_stats.create () in
  let r = Enet.Wire.Reader.create ~impl:Enet.Wire.Naive ~stats "\x00\x01" in
  match Enet.Wire.Reader.u32 r with
  | _ -> Alcotest.fail "expected underflow"
  | exception Enet.Wire.Reader.Underflow -> ()

let test_view_roundtrip () =
  let v = Enet.Wire.view_of_string "hello world" in
  check Alcotest.int "length" 11 (Enet.Wire.view_length v);
  check Alcotest.string "contents" "hello world" (Enet.Wire.view_to_string v);
  let sub = Enet.Wire.sub_view v ~pos:6 ~len:5 in
  check Alcotest.string "sub view" "world" (Enet.Wire.view_to_string sub);
  check (Alcotest.char) "indexing" 'w' (Enet.Wire.view_get sub 0)

let test_encode_roundtrip_and_refusal () =
  let stats = Enet.Conversion_stats.create () in
  let msg = Mobility.Marshal.M_reply { to_seg = 4; value = Ert.Value.Vint 7l; thread = 1 } in
  (match
     Mobility.Marshal.decode ~impl:Enet.Wire.Plan ~stats
       (Mobility.Marshal.encode ~impl:Enet.Wire.Plan ~stats msg)
   with
  | Mobility.Marshal.M_reply { to_seg = 4; _ } -> ()
  | _ -> Alcotest.fail "reply did not survive the round trip");
  (* a string too long for the u16 length prefix aborts the encode *)
  let huge =
    Mobility.Marshal.M_reply
      { to_seg = 4; value = Ert.Value.Vstr (String.make 70_000 'x'); thread = 1 }
  in
  match Mobility.Marshal.encode ~impl:Enet.Wire.Plan ~stats huge with
  | _ -> Alcotest.fail "oversized string must be rejected"
  | exception Enet.Wire.Writer.Oversize _ -> ()

(* a handed-off view owns its buffer: the writer is dead, and no later
   writer writes over the bytes the network holds *)
let test_handed_off_writer_rejects_use () =
  let stats = Enet.Conversion_stats.create () in
  let w = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  Enet.Wire.Writer.u16 w 1;
  let v = Enet.Wire.Writer.handoff w in
  (match Enet.Wire.Writer.u16 w 2 with
  | () -> Alcotest.fail "writing to a handed-off writer should fail"
  | exception Invalid_argument _ -> ());
  (match Enet.Wire.Writer.handoff w with
  | _ -> Alcotest.fail "a second handoff should fail"
  | exception Invalid_argument _ -> ());
  let w2 = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  Enet.Wire.Writer.u16 w2 0xFFFF;
  ignore (Enet.Wire.Writer.handoff w2 : Enet.Wire.view);
  check Alcotest.string "the view keeps its bytes" "\x00\x01" (Enet.Wire.view_to_string v)

(* Netsim ------------------------------------------------------------------ *)

let send net ~now_us ~src ~dst ~payload =
  Enet.Netsim.send net ~now_us ~src ~dst ~payload:(Enet.Wire.view_of_string payload)

let test_netsim_latency () =
  (* the default Ethernet, and a much slower 1 Mbit/s link with 5 ms of
     latency: both arrive exactly when the formula says *)
  let slow =
    { Enet.Netsim.latency_us = 5000.0; bandwidth_mbit_s = 1.0; frame_overhead_bytes = 58 }
  in
  List.iter
    (fun (name, config) ->
      let net = Enet.Netsim.create ?config ~n_nodes:3 () in
      let cfg = Enet.Netsim.config net in
      let arrival = send net ~now_us:1000.0 ~src:0 ~dst:1 ~payload:"hello" in
      let wire_bytes = 5 + cfg.Enet.Netsim.frame_overhead_bytes in
      let expect =
        1000.0
        +. (float_of_int (wire_bytes * 8) /. cfg.Enet.Netsim.bandwidth_mbit_s)
        +. cfg.Enet.Netsim.latency_us
      in
      check (Alcotest.float 0.001) (name ^ ": arrival time") expect arrival)
    [ ("default", None); ("1 Mbit/s, 5 ms", Some slow) ]

let test_netsim_fifo () =
  let net = Enet.Netsim.create ~n_nodes:2 () in
  ignore (send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:"first");
  ignore (send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:"second");
  ignore (send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:"third");
  let recv () =
    match Enet.Netsim.receive net ~dst:1 ~now_us:1e9 with
    | Some m -> Enet.Wire.view_to_string m.Enet.Netsim.msg_payload
    | None -> Alcotest.fail "expected a message"
  in
  check Alcotest.string "fifo 1" "first" (recv ());
  check Alcotest.string "fifo 2" "second" (recv ());
  check Alcotest.string "fifo 3" "third" (recv ());
  check Alcotest.int "drained" 0 (Enet.Netsim.pending net)

let test_netsim_not_before_arrival () =
  let net = Enet.Netsim.create ~n_nodes:2 () in
  let arrival = send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:"x" in
  (match Enet.Netsim.receive net ~dst:1 ~now_us:(arrival -. 1.0) with
  | Some _ -> Alcotest.fail "message delivered before its arrival time"
  | None -> ());
  match Enet.Netsim.receive net ~dst:1 ~now_us:arrival with
  | Some _ -> ()
  | None -> Alcotest.fail "message should be deliverable at its arrival time"

let test_netsim_medium_serialises () =
  (* two messages sent at the same instant share the 10 Mbit/s segment, so
     the second arrives strictly later *)
  let net = Enet.Netsim.create ~n_nodes:3 () in
  let a1 = send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:(String.make 1000 'a') in
  let a2 = send net ~now_us:0.0 ~src:2 ~dst:1 ~payload:(String.make 1000 'b') in
  if a2 <= a1 then Alcotest.fail "shared medium must serialise transmissions"

let suites =
  [
    ( "enet.wire",
      [
        qcheck (roundtrip Enet.Wire.Naive);
        qcheck (roundtrip Enet.Wire.Plan);
        qcheck (roundtrip Enet.Wire.Blit);
        Alcotest.test_case "network byte order" `Quick test_network_byte_order;
        Alcotest.test_case "implementations agree on octets" `Quick test_impls_agree;
        Alcotest.test_case "naive costs 1-2 calls/byte" `Quick test_calls_per_byte;
        Alcotest.test_case "reader underflow" `Quick test_reader_underflow;
        Alcotest.test_case "views" `Quick test_view_roundtrip;
        Alcotest.test_case "encode round trip and refusal" `Quick
          test_encode_roundtrip_and_refusal;
        Alcotest.test_case "a handed-off writer rejects use" `Quick
          test_handed_off_writer_rejects_use;
      ] );
    ( "enet.netsim",
      [
        Alcotest.test_case "latency model" `Quick test_netsim_latency;
        Alcotest.test_case "fifo delivery" `Quick test_netsim_fifo;
        Alcotest.test_case "no early delivery" `Quick test_netsim_not_before_arrival;
        Alcotest.test_case "medium serialises" `Quick test_netsim_medium_serialises;
      ] );
  ]
