(* Span tracing and phase histograms (lib/obs, DESIGN.md sec. 12).

   Three layers: the histogram/trace primitives in isolation, the span
   tree a real migration pipeline emits (every move completion carries a
   complete root-plus-phases tree), and the determinism contract — the
   rendered table and the exported Chrome trace are pinned by digest. *)

module A = Isa.Arch
module V = Ert.Value
module S = Obs.Span
module E = Core.Events

let check = Alcotest.check

(* Hist --------------------------------------------------------------- *)

let test_hist_percentiles () =
  let h = Obs.Hist.create () in
  for i = 1 to 1000 do
    Obs.Hist.add h (float_of_int i)
  done;
  check Alcotest.int "count" 1000 (Obs.Hist.count h);
  check (Alcotest.float 0.001) "exact max" 1000.0 (Obs.Hist.max_us h);
  let p50 = Obs.Hist.percentile h 50.0 in
  let p90 = Obs.Hist.percentile h 90.0 in
  let p99 = Obs.Hist.percentile h 99.0 in
  (* quantiles report a bucket lower bound: never above the true sample,
     at most one sub-bucket (~6%) below it *)
  let near expect got =
    if got > expect +. 0.001 || got < expect *. 0.93 then
      Alcotest.failf "quantile %.1f outside bucket tolerance of %.1f" got expect
  in
  near 500.0 p50;
  near 900.0 p90;
  near 990.0 p99;
  if not (p50 <= p90 && p90 <= p99) then Alcotest.fail "quantiles must be monotone";
  let m = Obs.Hist.mean_us h in
  if m < 450.0 || m > 550.0 then Alcotest.failf "mean %.1f far from 500.5" m

let test_hist_empty_and_merge () =
  let h = Obs.Hist.create () in
  check Alcotest.int "empty count" 0 (Obs.Hist.count h);
  check (Alcotest.float 0.001) "empty quantile" 0.0 (Obs.Hist.percentile h 99.0);
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  List.iter (Obs.Hist.add a) [ 1.0; 2.0 ];
  Obs.Hist.add b 1000.0;
  Obs.Hist.merge ~into:a b;
  check Alcotest.int "merged count" 3 (Obs.Hist.count a);
  check (Alcotest.float 0.001) "merged max" 1000.0 (Obs.Hist.max_us a);
  (* negative samples clamp instead of crashing the bucket index *)
  Obs.Hist.add a (-5.0);
  check Alcotest.int "clamped sample counted" 4 (Obs.Hist.count a)

(* Trace export and validation ---------------------------------------- *)

let mk_span ?parent ~seq ~name ~t0 ~t1 () =
  {
    S.name;
    node = 0;
    arch_pair = "sparc->sun3";
    t_start_us = t0;
    t_end_us = t1;
    id = { S.id_node = 0; id_seq = seq };
    parent;
    bytes = 0;
  }

let test_trace_roundtrip () =
  let root = mk_span ~seq:1 ~name:"move" ~t0:0.0 ~t1:100.0 () in
  let child =
    mk_span ~parent:root.S.id ~seq:2 ~name:"transfer" ~t0:10.0 ~t1:30.0 ()
  in
  (* out-of-order input: to_json sorts by (ts, node, id) *)
  let doc = Obs.Trace.to_json [ child; root ] in
  (match Obs.Trace.validate doc with
  | Ok 2 -> ()
  | Ok n -> Alcotest.failf "expected 2 events, validator saw %d" n
  | Error e -> Alcotest.failf "valid trace rejected: %s" e);
  check Alcotest.string "empty stream still validates" ""
    (match Obs.Trace.validate (Obs.Trace.to_json []) with
    | Ok 0 -> ""
    | Ok n -> Printf.sprintf "%d events" n
    | Error e -> e)

let test_trace_rejects_bad_documents () =
  let bad =
    [
      ("truncated", "{");
      ("not an object", "[]");
      ("traceEvents not an array", {|{"traceEvents": 3}|});
      ("event not an object", {|{"traceEvents":[7]}|});
      ("name not a string", {|{"traceEvents":[{"name":1,"ph":"X","ts":0}]}|});
      ("missing ph", {|{"traceEvents":[{"name":"a","ts":0}]}|});
      ( "ts decreasing",
        {|{"traceEvents":[{"name":"a","ph":"X","ts":5},{"name":"b","ph":"X","ts":1}]}|}
      );
    ]
  in
  List.iter
    (fun (what, doc) ->
      match Obs.Trace.validate doc with
      | Ok _ -> Alcotest.failf "validator accepted %s" what
      | Error _ -> ())
    bad

(* End-to-end: the migration pipeline's span tree ---------------------- *)

let drive_table1 cl =
  ignore (Core.Cluster.compile_and_load cl ~name:"table1" Core.Workloads.table1_src);
  let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip"
      ~args:[ V.Vint 1l; V.Vint 6l ]
  in
  match Core.Cluster.run_until_result cl tid with
  | Some _ -> ()
  | None -> Alcotest.fail "table1 workload produced no result"

let test_span_tree_complete () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.sun3 ] () in
  let p = Obs.Profile.create () in
  Core.Cluster.attach_profile cl p;
  let finishes = ref 0 in
  Core.Cluster.subscribe_events cl (function
    | E.Ev_move_finish _ -> incr finishes
    | _ -> ());
  drive_table1 cl;
  let spans = Obs.Profile.spans p in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.S.id s) spans;
  List.iter
    (fun s ->
      if s.S.t_end_us < s.S.t_start_us then
        Alcotest.failf "span ends before it starts: %s" (S.to_string s);
      match s.S.parent with
      | None -> ()
      | Some pid -> (
        match Hashtbl.find_opt ids pid with
        | None ->
          Alcotest.failf "%s span has orphan parent %s" s.S.name
            (S.id_to_string pid)
        | Some root ->
          check Alcotest.string "phase spans hang off move roots" "move"
            root.S.name;
          if
            s.S.t_start_us < root.S.t_start_us -. 1e-6
            || s.S.t_end_us > root.S.t_end_us +. 1e-6
          then Alcotest.failf "%s span escapes its move root" s.S.name))
    spans;
  let roots = List.filter (fun s -> s.S.name = "move") spans in
  check Alcotest.int "one move root per Ev_move_finish" !finishes
    (List.length roots);
  if !finishes = 0 then Alcotest.fail "workload performed no migrations";
  let phases =
    [ "capture"; "translate"; "marshal"; "transfer"; "unmarshal"; "rebuild"; "relocate" ]
  in
  List.iter
    (fun root ->
      let kids = List.filter (fun s -> s.S.parent = Some root.S.id) spans in
      List.iter
        (fun ph ->
          match List.filter (fun s -> s.S.name = ph) kids with
          | [ _ ] -> ()
          | l ->
            Alcotest.failf "move %s has %d %s phases (want exactly 1)"
              (S.id_to_string root.S.id) (List.length l) ph)
        phases;
      let sum = List.fold_left (fun acc s -> acc +. S.duration_us s) 0.0 kids in
      if sum > S.duration_us root +. 1e-6 then
        Alcotest.failf "phases of move %s sum to %.1fus > the move's %.1fus"
          (S.id_to_string root.S.id) sum (S.duration_us root))
    roots;
  (* the marshalled payload is visible on the transfer phase *)
  List.iter
    (fun s ->
      if s.S.name = "transfer" && s.S.bytes <= 0 then
        Alcotest.fail "transfer span lost its byte count")
    spans

let test_no_spans_without_enable () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.sun3 ] () in
  let n = ref 0 in
  Core.Cluster.subscribe_events cl (function E.Ev_span _ -> incr n | _ -> ());
  drive_table1 cl;
  check Alcotest.int "no spans unless tracing was enabled" 0 !n

(* Determinism: the phase table and Chrome trace, pinned -------------- *)

let render_run () =
  let cl =
    Core.Cluster.create ~archs:[ A.sparc; A.sun3; A.vax; A.hp9000_385 ] ()
  in
  let p = Obs.Profile.create () in
  Core.Cluster.attach_profile cl p;
  ignore (Core.Cluster.compile_and_load cl ~name:"par" Pinned.ring_tour_src);
  let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"tour"
      ~args:[ V.Vint 4l; V.Vint 6l; V.Vint 10l ]
  in
  (match Core.Cluster.run_until_result cl tid with
  | Some _ -> ()
  | None -> Alcotest.fail "tour produced no result");
  (Obs.Profile.table p, Obs.Trace.to_json (Obs.Profile.spans p))

(* pinned to the output the sharded engine's last release produced,
   identical there at 1, 2 and 4 shards *)
let test_output_pinned () =
  let table, json = render_run () in
  check Alcotest.string "phase table and chrome trace"
    "table 5ed03fb6eac76faf736e02025881954a, \
     trace 877ad7cc18f6a547af3eae830c91cf73"
    (Printf.sprintf "table %s, trace %s" (Pinned.digest table) (Pinned.digest json));
  match Obs.Trace.validate json with
  | Ok n when n > 0 -> ()
  | Ok _ -> Alcotest.fail "trace is empty"
  | Error e -> Alcotest.failf "exported trace invalid: %s" e

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "histogram quantiles" `Quick test_hist_percentiles;
        Alcotest.test_case "histogram empty/merge/clamp" `Quick
          test_hist_empty_and_merge;
        Alcotest.test_case "trace export validates" `Quick test_trace_roundtrip;
        Alcotest.test_case "validator rejects bad documents" `Quick
          test_trace_rejects_bad_documents;
        Alcotest.test_case "every move carries a complete span tree" `Quick
          test_span_tree_complete;
        Alcotest.test_case "silent unless enabled" `Quick
          test_no_spans_without_enable;
        Alcotest.test_case "phase table and Chrome trace pinned" `Quick
          test_output_pinned;
      ] );
  ]
