(* Tests for compiled conversion plans: byte identity with the
   interpretive tiers, accounting parity with the per-datum path, memo-cache
   behaviour, and the golden Table 1 virtual-time numbers the plan tier
   must not move. *)

module A = Isa.Arch
module V = Ert.Value
module CP = Mobility.Conv_plan
module CS = Enet.Conversion_stats
module WR = Enet.Wire.Writer
module RD = Enet.Wire.Reader

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Section-level byte identity ------------------------------------------- *)

(* A slot whose declared type its value inhabits, so a compiled plan
   always applies; strings and nils keep the dynamic fallback honest. *)
let typed_gen =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun i -> (Emc.Ast.Tint, V.Vint (Int32.of_int i)))
        (int_range (-1000000) 1000000);
      map
        (fun i -> (Emc.Ast.Treal, V.Vreal (float_of_int i /. 16.0)))
        (int_range (-1000) 1000);
      map (fun b -> (Emc.Ast.Tbool, V.Vbool b)) bool;
      map
        (fun s -> (Emc.Ast.Tstring, V.Vstr s))
        (string_size ~gen:printable (int_range 0 20));
      return (Emc.Ast.Tnil, V.Vnil);
    ]

let case_gen =
  let open QCheck.Gen in
  list_size (int_range 0 8) typed_gen >>= fun slots ->
  int_range 0 (List.length A.all - 1) >>= fun si ->
  int_range 0 (List.length A.all - 1) >>= fun di ->
  bool >>= fun prefixed ->
  return (Array.of_list slots, List.nth A.all si, List.nth A.all di, prefixed)

(* What the per-datum path ([Plan] with no plan, or [Naive]) would write
   for the same section: the count prefix, the optional slot-number prefixes, then each
   value through the shared codec. *)
let write_interp ~impl ~stats ~prefixed elems values =
  let w = WR.create ~impl ~stats in
  WR.u16 w (Array.length values);
  Array.iteri
    (fun i v ->
      if prefixed then WR.u16 w (fst elems.(i));
      V.write w v)
    values;
  let s = WR.contents w in
  WR.free w;
  s

let plan_matches_interp =
  QCheck.Test.make ~name:"plan emits the interpretive bytes and accounting"
    ~count:300 (QCheck.make case_gen) (fun (slots, src, dst, prefixed) ->
      let elems = Array.mapi (fun i (ty, _) -> (2 * i, ty)) slots in
      let values = Array.map snd slots in
      let pair = { CP.pr_src = src; pr_dst = dst } in
      let s = CP.compile_section ~pair ~prefixed elems in
      let plan_stats = CS.create () in
      let w = WR.create ~impl:Enet.Wire.Plan ~stats:plan_stats in
      if not (CP.write_section s w (fun i -> values.(i))) then
        QCheck.Test.fail_report "plan did not apply to matching values";
      let plan_bytes = WR.contents w in
      WR.free w;
      let naive_bytes =
        write_interp ~impl:Enet.Wire.Naive ~stats:(CS.create ()) ~prefixed elems
          values
      in
      let datum_stats = CS.create () in
      let datum_bytes =
        write_interp ~impl:Enet.Wire.Plan ~stats:datum_stats ~prefixed elems values
      in
      if plan_bytes <> naive_bytes then
        QCheck.Test.fail_report "plan bytes differ from naive bytes";
      if plan_bytes <> datum_bytes then
        QCheck.Test.fail_report "plan bytes differ from per-datum bytes";
      (* virtual accounting must equal the per-datum path's, datum for datum *)
      if CS.calls plan_stats <> CS.calls datum_stats then
        QCheck.Test.fail_reportf "plan charged %d calls, per-datum %d"
          (CS.calls plan_stats) (CS.calls datum_stats);
      if CS.bytes plan_stats <> CS.bytes datum_stats then
        QCheck.Test.fail_reportf "plan charged %d bytes, per-datum %d"
          (CS.bytes plan_stats) (CS.bytes datum_stats);
      (* and the fused decode must hand back the same values *)
      let r = RD.create ~impl:Enet.Wire.Plan ~stats:(CS.create ()) plan_bytes in
      match CP.read_section s r with
      | None -> QCheck.Test.fail_report "fused decode rejected its own bytes"
      | Some got ->
        if not (Array.for_all2 V.equal got values) then
          QCheck.Test.fail_report "fused decode returned different values";
        true)

(* The memo cache --------------------------------------------------------- *)

let cache_src =
  {|
object Agent
  operation go[] -> [r : int]
    var a : int <- 7
    var x : real <- 1.5
    move self to 1
    r <- a
    if x == 1.5 then
      r <- a + 1
    end if
  end go
end Agent
|}

let compile_cache_prog () =
  Emc.Compile.compile_exn ~name:"plan_cache" ~archs:A.all cache_src

let first_planned_stop use ~nstops =
  let rec go stop =
    if stop >= nstops then Alcotest.fail "no stop with a frame plan"
    else
      match CP.frame_plan_for use ~class_index:0 ~stop with
      | Some _ -> stop
      | None -> go (stop + 1)
  in
  go 0

let test_cache_compiles_once () =
  let prog = compile_cache_prog () in
  let nstops = prog.Emc.Compile.p_classes.(0).Emc.Compile.cc_ir.Emc.Ir.cl_nstops in
  let cache = CP.create_cache () in
  CP.set_program cache prog;
  let pair = { CP.pr_src = A.by_id "sparc"; pr_dst = A.by_id "vax" } in
  let use = CP.make_use cache pair in
  let stop = first_planned_stop use ~nstops in
  let compiles0 = CP.compiles cache in
  (* repeated lookups of the same plan are all hits, no recompiles *)
  for _ = 1 to 5 do
    match CP.frame_plan_for use ~class_index:0 ~stop with
    | Some _ -> ()
    | None -> Alcotest.fail "plan vanished on re-lookup"
  done;
  check Alcotest.int "no recompiles" compiles0 (CP.compiles cache);
  let hits0 = CP.hits cache in
  if hits0 < 5 then Alcotest.failf "expected >= 5 hits, saw %d" hits0;
  (* a second use of the same pair shares the compiled entries *)
  let use2 = CP.make_use cache pair in
  (match CP.frame_plan_for use2 ~class_index:0 ~stop with
  | Some _ -> ()
  | None -> Alcotest.fail "second use missed the shared entry");
  check Alcotest.int "shared entry, no recompile" compiles0 (CP.compiles cache);
  (* loading a program invalidates: a fresh use recompiles *)
  CP.set_program cache prog;
  let use3 = CP.make_use cache pair in
  ignore (CP.frame_plan_for use3 ~class_index:0 ~stop);
  if CP.compiles cache <= compiles0 then
    Alcotest.fail "set_program did not invalidate the cache"

(* Golden Table 1 numbers -------------------------------------------------- *)

(* The virtual-clock results of the reproduced Table 1 workload, three
   iterations.  The plan tier is required to leave every one of these
   alone: it charges exactly the per-datum path (one call per datum, 816
   over the run), and it may not move [Naive], whose numbers are the
   published baseline of this repo. *)
let test_table1_virtual_times_unchanged () =
  let sparc = A.by_id "sparc" and sun3 = A.by_id "sun3" in
  let run ?protocol ?wire_impl ?faults ~home ~dest () =
    Core.Workloads.measure_roundtrip ?protocol ?wire_impl ?faults ~home ~dest
      ~iters:3 ()
  in
  let us r = r.Core.Workloads.rt_us_per_trip in
  let orig = run ~protocol:Core.Cluster.Original ~home:sparc ~dest:sparc () in
  check (Alcotest.float 0.0) "original sparc<->sparc" 43432.0 (us orig);
  let naive = run ~wire_impl:Enet.Wire.Naive ~home:sparc ~dest:sparc () in
  check (Alcotest.float 0.0) "naive sparc<->sparc" 68343.0 (us naive);
  check Alcotest.int "naive bytes" 1254 naive.Core.Workloads.rt_bytes_sent;
  check Alcotest.int "naive messages" 6 naive.Core.Workloads.rt_messages;
  check Alcotest.int "naive conversion calls" 2628
    naive.Core.Workloads.rt_conversion_calls;
  let plan = run ~wire_impl:Enet.Wire.Plan ~home:sparc ~dest:sparc () in
  check (Alcotest.float 0.0) "plan sparc<->sparc" 55256.0 (us plan);
  check Alcotest.int "plan bytes == naive bytes" naive.Core.Workloads.rt_bytes_sent
    plan.Core.Workloads.rt_bytes_sent;
  check Alcotest.int "plan conversion calls, one per datum" 816
    plan.Core.Workloads.rt_conversion_calls;
  let het = run ~wire_impl:Enet.Wire.Naive ~home:sparc ~dest:sun3 () in
  check (Alcotest.float 0.0) "naive sparc<->sun3" 98330.0 (us het)

(* An empty fault plan stays invisible under the plan tier too *)
let test_plan_tier_ignores_empty_faults () =
  let sparc = A.by_id "sparc" in
  let plain =
    Core.Workloads.measure_roundtrip ~wire_impl:Enet.Wire.Plan ~home:sparc
      ~dest:sparc ~iters:3 ()
  in
  let faulted =
    Core.Workloads.measure_roundtrip ~wire_impl:Enet.Wire.Plan
      ~faults:(Fault.Plan.with_seed Fault.Plan.empty 42) ~home:sparc ~dest:sparc
      ~iters:3 ()
  in
  check (Alcotest.float 0.0) "virtual time"
    plain.Core.Workloads.rt_us_per_trip faulted.Core.Workloads.rt_us_per_trip;
  check Alcotest.int "bytes" plain.Core.Workloads.rt_bytes_sent
    faulted.Core.Workloads.rt_bytes_sent;
  check Alcotest.int "messages" plain.Core.Workloads.rt_messages
    faulted.Core.Workloads.rt_messages;
  check Alcotest.int "conversion calls" plain.Core.Workloads.rt_conversion_calls
    faulted.Core.Workloads.rt_conversion_calls

let suites =
  [
    ( "conv_plan",
      [
        qcheck plan_matches_interp;
        Alcotest.test_case "cache compiles once, invalidates on load" `Quick
          test_cache_compiles_once;
        Alcotest.test_case "Table 1 virtual times unchanged" `Quick
          test_table1_virtual_times_unchanged;
        Alcotest.test_case "empty fault plan invisible under plan tier" `Quick
          test_plan_tier_ignores_empty_faults;
      ] );
  ]
