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
        let bytes' = Enet.Wire.Writer.contents w' in
        Enet.Wire.Writer.free w';
        String.equal bytes' bytes
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

let test_pool_reuse () =
  Enet.Wire.Pool.reset ();
  let stats = Enet.Conversion_stats.create () in
  let w = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  Enet.Wire.Writer.str w "pooled payload";
  let v = Enet.Wire.Writer.handoff w in
  check Alcotest.int "first buffer is a miss" 1 (Enet.Wire.Pool.misses ());
  check Alcotest.int "handoff counted" 1 (Enet.Wire.Pool.handoffs ());
  Enet.Wire.release_view v;
  let w2 = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  check Alcotest.int "released buffer is reused" 1 (Enet.Wire.Pool.hits ());
  Enet.Wire.Writer.str w2 "second";
  Enet.Wire.Writer.free w2;
  (* sub-views never recycle their parent's buffer *)
  let w3 = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  Enet.Wire.Writer.str w3 "third";
  let v3 = Enet.Wire.Writer.handoff w3 in
  let inner = Enet.Wire.sub_view v3 ~pos:2 ~len:3 in
  let before = Enet.Wire.Pool.hits () in
  Enet.Wire.release_view inner;
  let w4 = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  Enet.Wire.Writer.free w4;
  if Enet.Wire.Pool.hits () > before + 1 then
    Alcotest.fail "sub view release must not recycle the parent buffer";
  Enet.Wire.release_view v3;
  Enet.Wire.Pool.reset ()

let test_pool_balance () =
  (* in_flight = hits + misses - returned must drain to zero on both the
     success and the exception paths of the marshaller *)
  Enet.Wire.Pool.reset ();
  let stats = Enet.Conversion_stats.create () in
  let msg = Mobility.Marshal.M_reply { to_seg = 4; value = Ert.Value.Vint 7l; thread = 1 } in
  let bytes = Mobility.Marshal.encode ~impl:Enet.Wire.Plan ~stats msg in
  check Alcotest.int "encode returns its buffer" 0 (Enet.Wire.Pool.in_flight ());
  (match Mobility.Marshal.decode ~impl:Enet.Wire.Plan ~stats bytes with
  | Mobility.Marshal.M_reply { to_seg = 4; _ } -> ()
  | _ -> Alcotest.fail "reply did not survive the round trip");
  let v = Mobility.Marshal.encode_view ~impl:Enet.Wire.Plan ~stats msg in
  check Alcotest.int "handoff keeps the buffer in flight" 1
    (Enet.Wire.Pool.in_flight ());
  Enet.Wire.release_view v;
  check Alcotest.int "release returns it" 0 (Enet.Wire.Pool.in_flight ());
  (* a string too long for the u16 length prefix aborts the encode
     part-way; the pooled buffer must still come back *)
  let huge =
    Mobility.Marshal.M_reply
      { to_seg = 4; value = Ert.Value.Vstr (String.make 70_000 'x'); thread = 1 }
  in
  (match Mobility.Marshal.encode ~impl:Enet.Wire.Plan ~stats huge with
  | _ -> Alcotest.fail "oversized string must be rejected"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "no leak from a failed encode" 0 (Enet.Wire.Pool.in_flight ());
  (match Mobility.Marshal.encode_view ~impl:Enet.Wire.Plan ~stats huge with
  | _ -> Alcotest.fail "oversized string must be rejected"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "no leak from a failed encode_view" 0
    (Enet.Wire.Pool.in_flight ());
  Enet.Wire.Pool.reset ()

let test_pool_balance_end_to_end () =
  (* a whole simulated workload, migrations and all, acquires and returns
     in matched pairs: nothing left in flight once the cluster drains *)
  Enet.Wire.Pool.reset ();
  let cl = Core.Cluster.create ~archs:[ Isa.Arch.sparc; Isa.Arch.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"table1" Core.Workloads.table1_src);
  let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip"
      ~args:[ Ert.Value.Vint 1l; Ert.Value.Vint 4l ]
  in
  (match Core.Cluster.run_until_result cl tid with
  | Some _ -> ()
  | None -> Alcotest.fail "workload produced no result");
  check Alcotest.int "pool balanced after the run" 0 (Enet.Wire.Pool.in_flight ());
  Enet.Wire.Pool.reset ()

let test_writer_free_rejects_use () =
  let stats = Enet.Conversion_stats.create () in
  let w = Enet.Wire.Writer.create ~impl:Enet.Wire.Plan ~stats in
  Enet.Wire.Writer.u16 w 1;
  Enet.Wire.Writer.free w;
  match Enet.Wire.Writer.u16 w 2 with
  | () -> Alcotest.fail "writing to a freed writer should fail"
  | exception _ -> ()

(* Netsim ------------------------------------------------------------------ *)

let test_netsim_latency () =
  let net = Enet.Netsim.create ~n_nodes:3 () in
  let cfg = Enet.Netsim.config net in
  let arrival = Enet.Netsim.send net ~now_us:1000.0 ~src:0 ~dst:1 ~payload:"hello" in
  let wire_bytes = 5 + cfg.Enet.Netsim.frame_overhead_bytes in
  let expect =
    1000.0
    +. (float_of_int (wire_bytes * 8) /. cfg.Enet.Netsim.bandwidth_mbit_s)
    +. cfg.Enet.Netsim.latency_us
  in
  check (Alcotest.float 0.001) "arrival time" expect arrival

let test_netsim_fifo () =
  let net = Enet.Netsim.create ~n_nodes:2 () in
  ignore (Enet.Netsim.send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:"first");
  ignore (Enet.Netsim.send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:"second");
  ignore (Enet.Netsim.send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:"third");
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
  let arrival = Enet.Netsim.send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:"x" in
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
  let a1 = Enet.Netsim.send net ~now_us:0.0 ~src:0 ~dst:1 ~payload:(String.make 1000 'a') in
  let a2 = Enet.Netsim.send net ~now_us:0.0 ~src:2 ~dst:1 ~payload:(String.make 1000 'b') in
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
        Alcotest.test_case "buffer pool reuse" `Quick test_pool_reuse;
        Alcotest.test_case "pool balance on success and failure" `Quick
          test_pool_balance;
        Alcotest.test_case "pool balance across a workload" `Quick
          test_pool_balance_end_to_end;
        Alcotest.test_case "freed writer rejects use" `Quick test_writer_free_rejects_use;
      ] );
    ( "enet.netsim",
      [
        Alcotest.test_case "latency model" `Quick test_netsim_latency;
        Alcotest.test_case "fifo delivery" `Quick test_netsim_fifo;
        Alcotest.test_case "no early delivery" `Quick test_netsim_not_before_arrival;
        Alcotest.test_case "medium serialises" `Quick test_netsim_medium_serialises;
      ] );
  ]
