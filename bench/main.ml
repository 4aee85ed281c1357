(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md, "Per-experiment index", and EXPERIMENTS.md
   for paper-vs-measured numbers).

     dune exec bench/main.exe            -- all experiments, paper-style tables
     dune exec bench/main.exe table1     -- one experiment by id
     dune exec bench/main.exe bechamel   -- Bechamel host-time microbenchmarks

   Experiment ids: table1, intranode, conversion, sweep, ablation, fig2,
   fig3 (includes fig4), scaling, cluster, cluster_smoke (CI-sized),
   faults, spans, evict, interp, blit, bridge, bechamel. *)

module A = Isa.Arch
module W = Core.Workloads

let pf = Printf.printf

let hr () = pf "%s\n" (String.make 78 '-')

(* ------------------------------------------------------------------ *)
(* --json FILE: machine-readable results (schema "emobility-bench/1")   *)
(* ------------------------------------------------------------------ *)

let json_path : string option ref = ref None
let json_rows : string list ref = ref []

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let jstr s = "\"" ^ json_escape s ^ "\""
let jint i = string_of_int i
let jnum f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let add_json_row ~experiment fields =
  json_rows := jobj (("experiment", jstr experiment) :: fields) :: !json_rows

let write_json path =
  let oc = open_out path in
  output_string oc
    (jobj
       [
         ("schema", jstr "emobility-bench/1");
         ("rows", "[\n" ^ String.concat ",\n" (List.rev !json_rows) ^ "\n]");
       ]);
  output_string oc "\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Table 1: thread mobility timings                                     *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  t1_name : string;
  t1_home : A.t;
  t1_dest : A.t;
  t1_paper_orig : string;
  t1_paper_enh : string;
}

let t1_rows =
  [
    { t1_name = "SPARC<->SPARC"; t1_home = A.sparc; t1_dest = A.sparc;
      t1_paper_orig = "40"; t1_paper_enh = "63" };
    { t1_name = "SPARC<->Sun3"; t1_home = A.sparc; t1_dest = A.sun3;
      t1_paper_orig = "N/A"; t1_paper_enh = "122" };
    { t1_name = "SPARC<->HP9000/300-1"; t1_home = A.sparc; t1_dest = A.hp9000_433;
      t1_paper_orig = "N/A"; t1_paper_enh = "52" };
    { t1_name = "SPARC<->HP9000/300-2"; t1_home = A.sparc; t1_dest = A.hp9000_385;
      t1_paper_orig = "N/A"; t1_paper_enh = "57" };
    { t1_name = "SPARC<->VAX"; t1_home = A.sparc; t1_dest = A.vax;
      t1_paper_orig = "N/A"; t1_paper_enh = "N/A (VAX died)" };
    { t1_name = "Sun-3<->Sun-3"; t1_home = A.sun3; t1_dest = A.sun3;
      t1_paper_orig = "65"; t1_paper_enh = "N/A (one Sun-3 left)" };
    { t1_name = "Sun-3<->HP9000/300-1"; t1_home = A.sun3; t1_dest = A.hp9000_433;
      t1_paper_orig = "N/A"; t1_paper_enh = "109" };
    { t1_name = "Sun-3<->HP9000/300-2"; t1_home = A.sun3; t1_dest = A.hp9000_385;
      t1_paper_orig = "N/A"; t1_paper_enh = "113" };
    { t1_name = "Sun-3<->VAX"; t1_home = A.sun3; t1_dest = A.vax;
      t1_paper_orig = "N/A"; t1_paper_enh = "N/A (VAX died)" };
    { t1_name = "HP9000/300-1<->HP9000/300-2"; t1_home = A.hp9000_433;
      t1_dest = A.hp9000_385; t1_paper_orig = "28"; t1_paper_enh = "44" };
    { t1_name = "VAX<->VAX"; t1_home = A.vax; t1_dest = A.vax;
      t1_paper_orig = "79"; t1_paper_enh = "N/A (VAX died)" };
  ]

let measure_ms ?protocol ?wire_impl home dest =
  let r = W.measure_roundtrip ?protocol ?wire_impl ~home ~dest ~iters:3 () in
  r.W.rt_us_per_trip /. 1000.0

let run_table1 () =
  pf "Table 1: Thread Mobility Timings\n";
  pf "Cost of moving a small thread (13 variables in the moved fragment)\n";
  pf "from one machine to another and back: two thread moves per figure.\n";
  pf "'Original' is the homogeneous system (raw copies, same-architecture\n";
  pf "only); 'Enhanced' is the heterogeneous system of the paper.\n";
  hr ();
  pf "%-28s %12s %12s %8s   %s\n" "Systems" "Original" "Enhanced" "Slower" "(paper: orig/enh ms)";
  hr ();
  List.iter
    (fun row ->
      let homogeneous = A.equal_family row.t1_home.A.family row.t1_dest.A.family in
      let orig =
        if homogeneous then
          Some (measure_ms ~protocol:Core.Cluster.Original row.t1_home row.t1_dest)
        else None
      in
      let enh = measure_ms row.t1_home row.t1_dest in
      add_json_row ~experiment:"table1"
        [
          ("pair", jstr row.t1_name);
          ("home", jstr row.t1_home.A.id);
          ("dest", jstr row.t1_dest.A.id);
          ("original_ms", match orig with Some v -> jnum v | None -> "null");
          ("enhanced_ms", jnum enh);
          ("paper_original", jstr row.t1_paper_orig);
          ("paper_enhanced", jstr row.t1_paper_enh);
        ];
      let orig_s =
        match orig with
        | Some v -> Printf.sprintf "%.0f ms" v
        | None -> "N/A"
      in
      let over_s =
        match orig with
        | Some v -> Printf.sprintf "%+.0f%%" ((enh -. v) /. v *. 100.0)
        | None -> ""
      in
      pf "%-28s %12s %9.0f ms %8s   (%s / %s)\n" row.t1_name orig_s enh over_s
        row.t1_paper_orig row.t1_paper_enh)
    t1_rows;
  hr ();
  pf "Notes: rows the paper marks N/A (its last VAX died, only one Sun-3\n";
  pf "was left) are measurable here — the simulation resurrects the\n";
  pf "machines.  Absolute times are virtual (cost-model) milliseconds;\n";
  pf "compare shape, not wall clock.\n\n"

(* ------------------------------------------------------------------ *)
(* Section 3.6: intra-node performance is unaffected by migration       *)
(* ------------------------------------------------------------------ *)

let run_intranode () =
  pf "Intra-node performance (section 3.6 claim)\n";
  pf "The same invocation-and-arithmetic loop, run by a thread created on\n";
  pf "the node vs. one that migrated in.  The paper: 'intra-node\n";
  pf "performance ... is independent of whether the thread was created on\n";
  pf "the processor or migrated to the processor'.\n";
  hr ();
  pf "%-16s %16s %16s %10s\n" "Architecture" "local thread" "migrated thread" "ratio";
  hr ();
  List.iter
    (fun arch ->
      let local = W.measure_intranode ~arch ~migrated:false ~n:2000 () in
      let migr = W.measure_intranode ~arch ~migrated:true ~n:2000 () in
      pf "%-16s %13.2f ms %13.2f ms %9.3fx\n" arch.A.name
        (local.W.in_virtual_us /. 1000.0)
        (migr.W.in_virtual_us /. 1000.0)
        (migr.W.in_virtual_us /. local.W.in_virtual_us))
    A.all;
  hr ();
  pf "The ratio must be 1.000: migrated threads execute the very same\n";
  pf "native instructions (measurements on both systems verify this\n";
  pf "trivially, as the paper puts it).\n\n"

(* ------------------------------------------------------------------ *)
(* Section 4 hypothesis: optimized conversion routines                  *)
(* ------------------------------------------------------------------ *)

let run_conversion () =
  pf "Conversion-routine ablation (sections 3.6/4)\n";
  pf "The paper attributes most of the enhanced system's penalty to its\n";
  pf "naive conversion routines (1-2 procedure calls per byte) and guesses\n";
  pf "that efficient routines would cut the penalty by about 50%%.\n";
  pf "Two wire tiers over one codec: naive (per-byte calls) and plan\n";
  pf "(one call per datum).\n";
  hr ();
  let pairs = [ ("SPARC<->SPARC", A.sparc, A.sparc); ("VAX<->VAX", A.vax, A.vax) ] in
  pf "%-14s %8s %9s %9s %5s\n" "Systems" "Original" "naive" "plan" "cut";
  hr ();
  let measure ?protocol ?wire_impl home dest =
    W.measure_roundtrip ?protocol ?wire_impl ~home ~dest ~iters:3 ()
  in
  List.iter
    (fun (name, home, dest) ->
      let orig = measure ~protocol:Core.Cluster.Original home dest in
      let naive = measure ~wire_impl:Enet.Wire.Naive home dest in
      let plan = measure ~wire_impl:Enet.Wire.Plan home dest in
      let ms r = r.W.rt_us_per_trip /. 1000.0 in
      let cut = (ms naive -. ms plan) /. (ms naive -. ms orig) *. 100.0 in
      add_json_row ~experiment:"conversion"
        [
          ("pair", jstr name);
          ("original_ms", jnum (ms orig));
          ("naive_ms", jnum (ms naive));
          ("plan_ms", jnum (ms plan));
          ("penalty_cut_pct", jnum cut);
        ];
      pf "%-14s %5.0f ms %6.0f ms %6.0f ms %4.0f%%\n" name (ms orig) (ms naive) (ms plan)
        cut)
    pairs;
  hr ();
  pf "(the paper's guess: about 50%%)\n\n"

(* ------------------------------------------------------------------ *)
(* Extension: move cost vs thread-fragment size                          *)
(* ------------------------------------------------------------------ *)

let run_sweep () =
  pf "Extension: thread-move cost vs fragment size\n";
  pf "The paper measured one point (13 variables in the moved fragment);\n";
  pf "this sweep varies the number of live variables the activation\n";
  pf "record carries across each move ('live vars' counts the payload\n";
  pf "variables; five bookkeeping variables ride along).  SPARC<->SPARC.\n";
  hr ();
  pf "%10s %14s %14s %12s %14s\n" "live vars" "original" "enhanced" "overhead" "wire bytes";
  hr ();
  List.iter
    (fun n ->
      let orig =
        W.measure_roundtrip ~protocol:Core.Cluster.Original ~n_vars:n ~home:A.sparc
          ~dest:A.sparc ~iters:2 ()
      in
      let enh = W.measure_roundtrip ~n_vars:n ~home:A.sparc ~dest:A.sparc ~iters:2 () in
      pf "%10d %11.1f ms %11.1f ms %11.0f%% %14d\n" n
        (orig.W.rt_us_per_trip /. 1000.0)
        (enh.W.rt_us_per_trip /. 1000.0)
        ((enh.W.rt_us_per_trip -. orig.W.rt_us_per_trip)
        /. orig.W.rt_us_per_trip *. 100.0)
        (enh.W.rt_bytes_sent / (enh.W.rt_messages / 2)))
    [ 1; 5; 13; 25; 50; 100 ];
  hr ();
  pf "The enhanced system's overhead grows with fragment size (every value\n";
  pf "pays the per-byte conversion routines), while the original's cost is\n";
  pf "dominated by the fixed protocol path - the paper's analysis, swept.\n\n"

(* ------------------------------------------------------------------ *)
(* Ablation: the between-bus-stops peephole pass                        *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  pf "Ablation: peephole optimization between bus stops (section 2.2.1)\n";
  pf "'A compiler is free to reorder and optimize between bus stops'; this\n";
  pf "pass removes store/reload redundancy without touching the stop\n";
  pf "discipline.  Same workload as the intra-node experiment.\n";
  hr ();
  pf "%-16s %12s %12s %14s %14s\n" "Architecture" "bytes -O0" "bytes -O1" "time -O0" "time -O1";
  hr ();
  let code_bytes arch level =
    let prog =
      Emc.Compile.compile_exn ~levels:[ level ] ~name:"abl" ~archs:[ arch ] W.intranode_src
    in
    Array.fold_left
      (fun acc (cc : Emc.Compile.compiled_class) ->
        acc
        + (Emc.Compile.artifact cc ~arch_id:arch.A.id).Emc.Compile.aa_code
            .Isa.Code.byte_size)
      0 prog.Emc.Compile.p_classes
  in
  List.iter
    (fun arch ->
      let b0 = code_bytes arch Emc.Opt.O0 and b1 = code_bytes arch Emc.Opt.O1 in
      let t0 = W.measure_intranode ~arch ~migrated:false ~n:2000 () in
      let t1 = W.measure_intranode ~levels:[ Emc.Opt.O1 ] ~arch ~migrated:false ~n:2000 () in
      pf "%-16s %12d %12d %11.2f ms %11.2f ms\n" arch.A.name b0 b1
        (t0.W.in_virtual_us /. 1000.0)
        (t1.W.in_virtual_us /. 1000.0))
    A.all;
  hr ();
  pf "Migration works identically at either level because both ends run\n";
  pf "identically optimized code — the prototype's rule; crossing levels\n";
  pf "is what the bridging mechanism (fig3) is for.\n\n"

(* ------------------------------------------------------------------ *)
(* Figure 2: the thread-state specialization hierarchy                  *)
(* ------------------------------------------------------------------ *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

let host_time_of f =
  (* warm up, then take the best of a few timed batches *)
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to 5 do
    best := Float.min !best (time_once f)
  done;
  !best

(* [host_time_of] for two rivals at once: the timed batches interleave
   and alternate which runs first, so a slow stretch of a shared host
   falls on both and their ratio holds *)
let host_times_of_pair f g =
  ignore (f ());
  ignore (g ());
  let best_f = ref infinity and best_g = ref infinity in
  let batch best h =
    (* neither rival pays for the garbage the other left *)
    Gc.full_major ();
    best := Float.min !best (time_once h)
  in
  for i = 1 to 6 do
    if i land 1 = 1 then begin
      batch best_f f;
      batch best_g g
    end
    else begin
      batch best_g g;
      batch best_f f
    end
  done;
  (!best_f, !best_g)

(* ------------------------------------------------------------------ *)
(* Marshalling fast path: host ns per encode/decode, by wire tier       *)
(* ------------------------------------------------------------------ *)

let marshal_src =
  {|
object Agent
  operation go[] -> [r : int]
    var i1 : int <- 1000001
    var i2 : int <- 1000002
    var i3 : int <- 1000003
    var i4 : int <- 1000004
    var i5 : int <- 1000005
    var i6 : int <- 1000006
    var i7 : int <- 1000007
    var i8 : int <- 1000008
    var i9 : int <- 1000009
    var x : real <- 6.5
    var y : real <- 0.25
    var s : string <- "carried-payload"
    var b : bool <- true
    move self to 1
    r <- i1 + i2 + i3 + i4 + i5 + i6 + i7 + i8 + i9
    if b and x == 6.5 and s == "carried-payload" then
      r <- r + 1
    end if
    if y == 0.25 then
      r <- r + 1
    end if
  end go
end Agent
|}

(* drive a kernel to its move bus stop and capture the real M_move
   payload, exactly what the cluster would put on the wire *)
let marshal_payload arch =
  let prog = Emc.Compile.compile_exn ~name:"mbench" ~archs:[ arch ] marshal_src in
  let k = Ert.Kernel.create ~node_id:0 ~arch () in
  Ert.Kernel.load_program k prog;
  let cc = Option.get (Emc.Compile.find_class prog "Agent") in
  let addr = Ert.Kernel.create_object k ~class_index:cc.Emc.Compile.cc_index in
  ignore (Ert.Kernel.spawn_root k ~target_addr:addr ~method_name:"go" ~args:[]);
  let rec to_move n =
    if n > 10000 then failwith "marshal bench: never reached the move";
    match Ert.Kernel.step k with
    | [ Ert.Kernel.Oc_move { seg; obj_addr; dest_node } ] ->
      Mobility.Move.park_mover_for_test seg;
      Mobility.Move.perform_move k ~obj_addr ~dest:dest_node
    | _ -> to_move (n + 1)
  in
  to_move 0

let run_marshal () =
  pf "Marshalling fast path: host time per encode/decode of a real move\n";
  pf "payload (the Table 1 thread fragment, 13 variables), by wire tier.\n";
  pf "All tiers emit byte-identical wire images through the same codec;\n";
  pf "naive charges per byte, plan per datum, and blit (this pair has\n";
  pf "matching layouts) one call per record.\n";
  hr ();
  let msg = Mobility.Marshal.M_move (marshal_payload A.sparc) in
  let stats = Enet.Conversion_stats.create () in
  (* every tier is timed on the transport's path: encode hands a fresh
     buffer to the network as a view, and the receiver decodes the view *)
  let tiers =
    [
      ("naive", Enet.Wire.Naive, false);
      ("plan", Enet.Wire.Plan, false);
      ("blit", Enet.Wire.Blit, true);
    ]
  in
  let image = Mobility.Marshal.encode ~impl:Enet.Wire.Naive ~stats msg in
  let image_bytes = Enet.Wire.view_to_string image in
  (* byte identity and decode fidelity across tiers, before any timing *)
  List.iter
    (fun (name, impl, blit) ->
      let enc = Mobility.Marshal.encode ~blit ~impl ~stats msg in
      if not (String.equal (Enet.Wire.view_to_string enc) image_bytes) then
        failwith (Printf.sprintf "marshal bench: %s tier wire image differs" name);
      if Mobility.Marshal.decode ~blit ~impl ~stats enc <> msg then
        failwith (Printf.sprintf "marshal bench: %s tier does not round trip" name))
    tiers;
  let n = 2000 in
  let tier_fns =
    List.map
      (fun (name, impl, blit) ->
        ( name,
          (fun () -> ignore (Mobility.Marshal.encode ~blit ~impl ~stats msg)),
          fun () -> ignore (Mobility.Marshal.decode ~blit ~impl ~stats image) ))
      tiers
  in
  (* interleave the tiers round-robin so transient host load hits them
     all; keep each tier's best round *)
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let batch f =
    for _ = 1 to n do
      f ()
    done
  in
  List.iter
    (fun (_, e, d) ->
      batch e;
      batch d)
    tier_fns;
  let n_tiers = List.length tier_fns in
  let best_enc = Array.make n_tiers infinity in
  let best_dec = Array.make n_tiers infinity in
  for _ = 1 to 7 do
    List.iteri
      (fun i (_, e, d) ->
        let te = time (fun () -> batch e) in
        let td = time (fun () -> batch d) in
        if te < best_enc.(i) then best_enc.(i) <- te;
        if td < best_dec.(i) then best_dec.(i) <- td)
      tier_fns
  done;
  let ns t = t /. float_of_int n *. 1e9 in
  let results =
    List.mapi (fun i (name, _, _) -> (name, ns best_enc.(i), ns best_dec.(i))) tier_fns
  in
  let total (_, e, d) = e +. d in
  let naive_total = total (List.nth results 0) in
  pf "%-8s %12s %12s %10s %12s\n" "tier" "encode" "decode" "bytes" "vs naive";
  hr ();
  List.iter
    (fun ((name, e, d) as r) ->
      let speedup = naive_total /. total r in
      add_json_row ~experiment:"marshal"
        [
          ("tier", jstr name);
          ("encode_ns", jnum e);
          ("decode_ns", jnum d);
          ("bytes", jint (Enet.Wire.view_length image));
          ("speedup_vs_naive", jnum speedup);
        ];
      pf "%-8s %9.0f ns %9.0f ns %10d %11.2fx\n" name e d (Enet.Wire.view_length image)
        speedup)
    results;
  hr ();
  pf "\n"

let run_fig2 () =
  pf "Figure 2: the thread-state specialization hierarchy\n";
  pf "The same program executed at three levels of the hierarchy.  Program\n";
  pf "execution lower in the hierarchy is faster; higher levels have\n";
  pf "machine-independent thread state, where mobility is trivial.  The\n";
  pf "paper's technique gets native speed AND mobility at once.\n";
  hr ();
  let src = W.fig2_src in
  let n = 16 in
  let ast = Emc.Parser.parse_program src in
  let tprog = Emc.Typecheck.check ast in
  let ir = Emc.Lower.lower_program ~name:"fig2" tprog in
  let args_mv = [ Emi.Mvalue.Int (Int32.of_int n) ] in
  let source_run () =
    (Emi.Ast_interp.run tprog ~class_name:"Main" ~op:"start" ~args:args_mv)
      .Emi.Ast_interp.steps
  in
  let ir_run () =
    (Emi.Ir_interp.run ir ~class_name:"Main" ~op:"start" ~args:args_mv)
      .Emi.Ir_interp.steps
  in
  let native_arch = A.sparc in
  let native_prog = Emc.Compile.compile_exn ~name:"fig2" ~archs:[ native_arch ] src in
  let native_run () =
    let k = Ert.Kernel.create ~node_id:0 ~arch:native_arch () in
    Ert.Kernel.load_program k native_prog;
    let cc = Option.get (Emc.Compile.find_class native_prog "Main") in
    let addr = Ert.Kernel.create_object k ~class_index:cc.Emc.Compile.cc_index in
    let tid =
      Ert.Kernel.spawn_root k ~target_addr:addr ~method_name:"start"
        ~args:[ Ert.Value.Vint (Int32.of_int n) ]
    in
    let rec loop () =
      match Ert.Kernel.root_result k tid with
      | Some _ -> Ert.Kernel.insns_executed k
      | None ->
        ignore (Ert.Kernel.step k);
        loop ()
    in
    loop ()
  in
  (* an interpreter running ON the machine pays a per-operation dispatch
     cost in native instructions; these factors are typical for naive
     tree walkers and threaded-code interpreters of the period *)
  let source_dispatch = 25 and ir_dispatch = 12 in
  let t_src = host_time_of source_run and steps_src = source_run () in
  let t_ir = host_time_of ir_run and steps_ir = ir_run () in
  let t_nat = host_time_of native_run and insns_nat = native_run () in
  pf "%-24s %12s %18s %10s %12s\n" "Level" "work units" "native-insn equiv" "vs native"
    "sim host";
  hr ();
  let row name units equiv t =
    pf "%-24s %12d %18d %9.1fx %9.2f ms\n" name units equiv
      (float_of_int equiv /. float_of_int insns_nat)
      (t *. 1000.0)
  in
  row "Source (AST walk)" steps_src (steps_src * source_dispatch) t_src;
  row "Intermediate (IR)" steps_ir (steps_ir * ir_dispatch) t_ir;
  row "Native (SPARC code)" insns_nat insns_nat t_nat;
  hr ();
  pf "'native-insn equiv' models each interpreted operation costing %d\n" source_dispatch;
  pf "(source) or %d (IR) native instructions of dispatch; 'sim host' is\n" ir_dispatch;
  pf "what this simulator spends on the host (the native level is itself\n";
  pf "an instruction-level simulator there, so its host cost is high).\n\n"

(* ------------------------------------------------------------------ *)
(* Figures 3 and 4: bridging code                                      *)
(* ------------------------------------------------------------------ *)

let run_fig3 () =
  let module B = Mobility.Bridging in
  let plain n = { B.name = n; kind = B.Plain } in
  let call n = { B.name = n; kind = B.Call } in
  let stop n = { B.name = n; kind = B.Stop } in
  let abstract =
    B.abstract
      [ plain "o1"; plain "o2"; plain "o3"; call "switch"; plain "o4"; plain "o5";
        stop "o6" ]
  in
  let code1 = B.apply_edits abstract [ B.Swap 2; B.Swap 1 ] in
  let code2 =
    B.apply_edits abstract
      [ B.Swap 0; B.Swap 2; B.Swap 1; B.Swap 4; B.Swap 3; B.Swap 2; B.Swap 1; B.Swap 3;
        B.Swap 4; B.Swap 3; B.Swap 4 ]
  in
  pf "Figure 3: two code-motion optimizations of one abstract sequence\n";
  hr ();
  Format.printf "  abstract: %a@." B.pp_code abstract;
  Format.printf "  code1:    %a@." B.pp_code code1;
  Format.printf "  code2:    %a@." B.pp_code code2;
  hr ();
  pf "\nFigure 4: bridging from code1 (suspended at switch()) to code2\n";
  hr ();
  let b = B.build_bridge ~from_:code1 ~at:"switch" ~to_:code2 in
  Format.printf "  %a@." (B.pp_bridge ~to_:code2) b;
  let log = B.run_with_migration ~from_:code1 ~at:"switch" ~to_:code2 in
  Format.printf "  execution: %s@." (String.concat "; " log);
  pf "  exactly-once: %b\n" (B.exactly_once ~abstract log);
  hr ();
  pf "(the paper's Figure 4 shows exactly this fragment: o2; o4; o5,\n";
  pf "then a jump to o3 in code2)\n\n"

(* ------------------------------------------------------------------ *)
(* Extension: event-engine scaling                                      *)
(* ------------------------------------------------------------------ *)

let run_scaling () =
  pf "Extension: event-selection cost vs cluster size\n";
  pf "One agent tours the ring of nodes under a 2-instruction preemptive\n";
  pf "quantum, so the run decomposes into ~500k tiny scheduling events and\n";
  pf "EVENT SELECTION dominates the host cost: one O(log pending) heap pop\n";
  pf "per event.  The engine suite pins every row's events, time and result.\n";
  hr ();
  pf "%6s %9s %10s %12s\n" "nodes" "events" "host s" "events/s";
  hr ();
  let hops = 48 and spins = 800 and quantum = 2 in
  (* host times are noisy; take the best of three runs *)
  let best f =
    let r = ref (f ()) in
    for _ = 2 to 3 do
      let r' = f () in
      if r'.W.sc_host_seconds < !r.W.sc_host_seconds then r := r'
    done;
    !r
  in
  List.iter
    (fun n ->
      let r = best (fun () -> W.measure_scaling ~quantum ~n_nodes:n ~hops ~spins ()) in
      add_json_row ~experiment:"scaling"
        [
          ("nodes", jint n);
          ("events", jint r.W.sc_events);
          ("heap_host_s", jnum r.W.sc_host_seconds);
          ("heap_events_per_s", jnum r.W.sc_events_per_sec);
        ];
      pf "%6d %9d %10.3f %12.0f\n" n r.W.sc_events r.W.sc_host_seconds
        r.W.sc_events_per_sec)
    [ 4; 8; 16; 32; 64 ];
  hr ();
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Extension: move cost under injected message loss                     *)
(* ------------------------------------------------------------------ *)

let run_faults () =
  pf "Extension: thread-move cost under message loss\n";
  pf "The Table 1 round trip with a fault plan injecting uniform message\n";
  pf "loss.  The retry/ack transport (sequence numbers, acks, exponential\n";
  pf "backoff from 2 ms) masks every drop, so the trip still completes and\n";
  pf "moves still apply exactly once; each retransmission shows up as RTO\n";
  pf "latency in the virtual clock.  SPARC<->Sun-3, 5 round trips.\n";
  hr ();
  pf "%8s %14s %14s %12s %10s\n" "loss" "per trip" "vs lossless" "retransmits" "messages";
  hr ();
  let base = ref nan in
  List.iter
    (fun drop ->
      let faults =
        if drop = 0.0 then Fault.Plan.empty
        else Fault.Plan.with_seed (Fault.Plan.make ~drop ()) 1
      in
      let r = W.measure_roundtrip ~faults ~home:A.sparc ~dest:A.sun3 ~iters:5 () in
      let ms = r.W.rt_us_per_trip /. 1000.0 in
      if drop = 0.0 then base := ms;
      pf "%7.0f%% %11.1f ms %13s %12d %10d\n" (drop *. 100.0) ms
        (if drop = 0.0 then "-" else Printf.sprintf "%+.0f%%" ((ms -. !base) /. !base *. 100.0))
        r.W.rt_retransmits r.W.rt_messages)
    [ 0.0; 0.1; 0.3 ];
  hr ();
  (* the acceptance gate: an empty plan must be invisible — bit-identical
     virtual times on table1 and an identical event count on scaling *)
  let plain = W.measure_roundtrip ~home:A.sparc ~dest:A.sun3 ~iters:3 () in
  let empty =
    W.measure_roundtrip ~faults:(Fault.Plan.with_seed Fault.Plan.empty 42)
      ~home:A.sparc ~dest:A.sun3 ~iters:3 ()
  in
  let s_plain = W.measure_scaling ~n_nodes:8 ~hops:16 ~spins:200 () in
  let s_empty =
    W.measure_scaling ~faults:(Fault.Plan.with_seed Fault.Plan.empty 42)
      ~n_nodes:8 ~hops:16 ~spins:200 ()
  in
  pf "empty-plan overhead: table1 %.3f ms vs %.3f ms (%s), scaling %d vs %d\n"
    (plain.W.rt_us_per_trip /. 1000.0)
    (empty.W.rt_us_per_trip /. 1000.0)
    (if plain.W.rt_us_per_trip = empty.W.rt_us_per_trip then "bit-identical"
     else "DIFFERENT")
    s_plain.W.sc_events s_empty.W.sc_events;
  pf "events %s, result %s: an unused fault plan costs nothing\n\n"
    (if s_plain.W.sc_events = s_empty.W.sc_events
        && s_plain.W.sc_virtual_us = s_empty.W.sc_virtual_us
     then "identical" else "DIFFERENT")
    (if s_plain.W.sc_result = s_empty.W.sc_result then "identical" else "DIFFERENT")

(* ------------------------------------------------------------------ *)
(* Bechamel host-time microbenchmarks                                   *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let table1 =
    Test.make ~name:"table1_mobility_roundtrip"
      (Staged.stage (fun () ->
           ignore (W.measure_roundtrip ~home:A.sparc ~dest:A.sun3 ~iters:1 ())))
  in
  let intranode =
    Test.make ~name:"intranode_native_loop"
      (Staged.stage (fun () ->
           ignore (W.measure_intranode ~arch:A.sparc ~migrated:false ~n:500 ())))
  in
  let src = W.fig2_src in
  let ast = Emc.Parser.parse_program src in
  let tprog = Emc.Typecheck.check ast in
  let ir = Emc.Lower.lower_program ~name:"fig2" tprog in
  let fig2_source =
    Test.make ~name:"fig2_source_level"
      (Staged.stage (fun () ->
           ignore
             (Emi.Ast_interp.run tprog ~class_name:"Main" ~op:"start"
                ~args:[ Emi.Mvalue.Int 12l ])))
  in
  let fig2_ir =
    Test.make ~name:"fig2_ir_level"
      (Staged.stage (fun () ->
           ignore
             (Emi.Ir_interp.run ir ~class_name:"Main" ~op:"start"
                ~args:[ Emi.Mvalue.Int 12l ])))
  in
  let compile =
    Test.make ~name:"compile_all_architectures"
      (Staged.stage (fun () ->
           ignore (Emc.Compile.compile_exn ~name:"bench" ~archs:A.all W.table1_src)))
  in
  let bridging =
    Test.make ~name:"fig4_bridge_construction"
      (Staged.stage (fun () ->
           let module B = Mobility.Bridging in
           let plain n = { B.name = n; kind = B.Plain } in
           let call n = { B.name = n; kind = B.Call } in
           let stop n = { B.name = n; kind = B.Stop } in
           let abs =
             B.abstract
               [ plain "o1"; plain "o2"; plain "o3"; call "switch"; plain "o4";
                 plain "o5"; stop "o6" ]
           in
           let c1 = B.apply_edits abs [ B.Swap 2; B.Swap 1 ] in
           let c2 = B.apply_edits abs [ B.Swap 0; B.Swap 4 ] in
           ignore (B.build_bridge ~from_:c1 ~at:"switch" ~to_:c2)))
  in
  [ table1; intranode; fig2_source; fig2_ir; compile; bridging ]

let run_bechamel () =
  let open Bechamel in
  pf "Bechamel host-time microbenchmarks (monotonic clock, ns/run)\n";
  hr ();
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> pf "%-36s %14.0f ns/run\n" name est
          | Some _ | None -> pf "%-36s %14s\n" name "n/a")
        stats)
    (bechamel_tests ());
  hr ();
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Migration span tracing: per-phase latency percentiles (DESIGN.md
   §12).  Runs the Table 1 workload with a span profile attached and
   reports the per-arch-pair phase histogram; also the observability
   overhead gate — spans read the virtual clocks and never charge them,
   so the traced run must report the identical virtual time.            *)
(* ------------------------------------------------------------------ *)

let trace_out_flag : string option ref = ref None

let run_spans () =
  pf "Migration phase spans (span tracing, DESIGN.md sec. 12)\n";
  pf "Table 1 workload, SPARC<->Sun-3, 8 round trips; per-phase virtual\n";
  pf "latencies aggregated per architecture pair.\n";
  hr ();
  let run_once ~with_profile () =
    let t0 = Unix.gettimeofday () in
    let cl = Core.Cluster.create ~archs:[ A.sparc; A.sun3 ] () in
    let p =
      if with_profile then begin
        let p = Obs.Profile.create () in
        Core.Cluster.attach_profile cl p;
        Some p
      end
      else None
    in
    ignore (Core.Cluster.compile_and_load cl ~name:"table1" W.table1_src);
    let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
    let tid =
      Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip"
        ~args:[ Ert.Value.Vint 1l; Ert.Value.Vint 8l ]
    in
    ignore (Core.Cluster.run_until_result cl tid);
    (Core.Cluster.global_time_us cl, Unix.gettimeofday () -. t0, p)
  in
  let virt_plain, host_plain, _ = run_once ~with_profile:false () in
  let virt_prof, host_prof, prof = run_once ~with_profile:true () in
  let p = Option.get prof in
  print_string (Obs.Profile.table p);
  List.iter
    (fun (r : Obs.Profile.row) ->
      add_json_row ~experiment:"spans"
        [
          ("pair", jstr r.Obs.Profile.r_pair);
          ("phase", jstr r.Obs.Profile.r_phase);
          ("count", jint r.Obs.Profile.r_count);
          ("p50_us", jnum r.Obs.Profile.r_p50_us);
          ("p90_us", jnum r.Obs.Profile.r_p90_us);
          ("p99_us", jnum r.Obs.Profile.r_p99_us);
          ("max_us", jnum r.Obs.Profile.r_max_us);
          ("mean_us", jnum r.Obs.Profile.r_mean_us);
        ])
    (Obs.Profile.rows p);
  (match !trace_out_flag with
  | Some path ->
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (Obs.Trace.to_json (Obs.Profile.spans p)));
    pf "chrome trace written to %s (%d spans)\n" path (Obs.Profile.count p)
  | None -> ());
  hr ();
  pf "overhead gate: virtual %.2f ms untraced vs %.2f ms traced (%s);\n"
    (virt_plain /. 1000.0) (virt_prof /. 1000.0)
    (if virt_plain = virt_prof then "identical, as required" else "MISMATCH");
  pf "host %.1f ms untraced vs %.1f ms traced (%d spans recorded)\n"
    (host_plain *. 1000.0) (host_prof *. 1000.0) (Obs.Profile.count p);
  if virt_plain <> virt_prof then begin
    Printf.eprintf "spans: tracing perturbed virtual time!\n";
    exit 1
  end;
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Extension: forced eviction and asynchronous migration                *)
(* ------------------------------------------------------------------ *)

(* Six spin workers all spawn on node 0 of a four-node cluster; the
   hot-spot balancer fires every 400 virtual us and evicts the deepest
   backlog toward the coldest node, trapping each victim at its next bus
   stop (no cooperative polling).  The identical schedule runs twice:
   synchronously (the sender is charged capture+translate+marshal before
   it resumes) and with asynchronous migration (those phases overlap
   execution, and only the non-overlapped remainder is charged).  The
   gate: overlap may never cost virtual time, and both runs must scatter
   the workers off the hot node. *)
let run_evict () =
  pf "Extension: forced eviction under the hot-spot balancer\n";
  pf "Six workers pile onto node 0 of a 4-node cluster; every 400us the\n";
  pf "balancer evicts the deepest backlog to the coldest node.  'sync'\n";
  pf "charges the full capture pipeline to the sender; 'async' overlaps\n";
  pf "it with execution up to the victim's bus stop.\n";
  hr ();
  let rounds = 16 and spins = 200 and n_nodes = 4 in
  let go async =
    W.measure_evict ~async_migration:async ~n_nodes ~rounds ~spins ()
  in
  let sync = go false in
  let asy = go true in
  pf "%8s %9s %12s %10s %10s %10s\n" "mode" "evicts" "virtual us" "events"
    "peak q0" "spread";
  hr ();
  let spread r =
    String.concat "," (List.map string_of_int r.W.er_final_spread)
  in
  let row name (r : W.evict_run) =
    pf "%8s %9d %12.1f %10d %10d %10s\n" name r.W.er_evictions
      r.W.er_virtual_us r.W.er_events r.W.er_peak_depth_home (spread r)
  in
  row "sync" sync;
  row "async" asy;
  hr ();
  let saved = sync.W.er_virtual_us -. asy.W.er_virtual_us in
  let saved_pct =
    if sync.W.er_virtual_us > 0.0 then 100.0 *. saved /. sync.W.er_virtual_us
    else 0.0
  in
  add_json_row ~experiment:"evict"
    [
      ("nodes", jint n_nodes);
      ("workers", jint 6);
      ("evictions_sync", jint sync.W.er_evictions);
      ("evictions_async", jint asy.W.er_evictions);
      ("sync_virtual_us", jnum sync.W.er_virtual_us);
      ("async_virtual_us", jnum asy.W.er_virtual_us);
      ("overlap_saved_us", jnum saved);
      ("overlap_saved_pct", jnum saved_pct);
      ("peak_depth_home", jint sync.W.er_peak_depth_home);
      ("result_sync", jint sync.W.er_result);
      ("result_async", jint asy.W.er_result);
    ];
  pf "async migration saves %.1f virtual us (%.1f%%) over synchronous\n" saved
    saved_pct;
  if sync.W.er_evictions = 0 || asy.W.er_evictions = 0 then begin
    pf "ERROR: the balancer never fired an eviction\n";
    exit 1
  end;
  if asy.W.er_virtual_us > sync.W.er_virtual_us then begin
    pf "FAIL: asynchronous migration cost virtual time (%.1f > %.1f)\n"
      asy.W.er_virtual_us sync.W.er_virtual_us;
    exit 1
  end;
  pf "\n"

(* ------------------------------------------------------------------ *)
(* Extension: the partitioned location directory at cluster scale       *)
(* ------------------------------------------------------------------ *)

(* The million-object regime, scaled to bench time: a large cold
   population fills the dense object tables and the partitioned
   directory, a hot flock tours the ring as batched group migrations,
   and chasers with stale references drive the locate machinery.  Two
   gates: every chaser digest must land (the calls all found their
   moving targets), and the mean forwarding-hop count per located
   invoke must stay <= 2 — the chain-collapse hints and the directory
   keep routes short even while the flock keeps moving. *)
let run_cluster_config ~experiment ~n_nodes ~n_objects ~flock ~askers ~calls
    ~rounds () =
  let r =
    W.measure_cluster ~flock ~askers ~calls ~rounds ~n_nodes ~n_objects ()
  in
  pf "%7s %9s %9s %8s %9s %7s\n" "objects" "events" "ev/s" "locates"
    "mean hops" "dir upd";
  hr ();
  pf "%7d %9d %9.0f %8d %9.2f %7d\n" r.W.cr_objects r.W.cr_events
    r.W.cr_events_per_sec r.W.cr_locates r.W.cr_mean_hops r.W.cr_dir_updates;
  hr ();
  pf "group transfers: %d (%d objects); collapses: %d; directory: %d\n"
    r.W.cr_group_moves r.W.cr_group_objects r.W.cr_collapses
    r.W.cr_dir_applied;
  pf "applied, %d stale dropped, lookups %d hit / %d miss; %d msgs, %d bytes\n"
    r.W.cr_dir_stale r.W.cr_dir_hits r.W.cr_dir_misses r.W.cr_messages
    r.W.cr_bytes;
  add_json_row ~experiment
    [
      ("nodes", jint n_nodes);
      ("objects", jint n_objects);
      ("events", jint r.W.cr_events);
      ("events_per_s", jnum r.W.cr_events_per_sec);
      ("run_host_s", jnum r.W.cr_run_seconds);
      ("locates", jint r.W.cr_locates);
      ("mean_lookup_hops", jnum r.W.cr_mean_hops);
      ("collapses", jint r.W.cr_collapses);
      ("dir_updates", jint r.W.cr_dir_updates);
      ("dir_stale", jint r.W.cr_dir_stale);
      ("dir_hits", jint r.W.cr_dir_hits);
      ("dir_misses", jint r.W.cr_dir_misses);
      ("group_moves", jint r.W.cr_group_moves);
      ("group_objects", jint r.W.cr_group_objects);
      ("messages", jint r.W.cr_messages);
      ("bytes", jint r.W.cr_bytes);
    ];
  if r.W.cr_result <> r.W.cr_expected then begin
    pf "FAIL: chaser digests sum to %d, expected %d\n" r.W.cr_result
      r.W.cr_expected;
    exit 1
  end;
  if r.W.cr_locates = 0 || r.W.cr_group_moves = 0 then begin
    pf "FAIL: the workload generated no locate or group-migration traffic\n";
    exit 1
  end;
  if r.W.cr_mean_hops > 2.0 then begin
    pf "FAIL: mean lookup hops %.2f exceeds the 2.0 gate\n" r.W.cr_mean_hops;
    exit 1
  end;
  pf "gates: digests complete, mean hops %.2f <= 2.0\n\n" r.W.cr_mean_hops

let run_cluster () =
  pf "Extension: partitioned location directory at cluster scale\n";
  pf "100k objects on 1024 nodes; a 32-cell flock tours\n";
  pf "the ring as group migrations while 16 chasers with stale references\n";
  pf "invoke it.  Chain collapse and the directory must keep the mean\n";
  pf "forwarding-hop count per located invoke at or below 2.\n";
  hr ();
  run_cluster_config ~experiment:"cluster" ~n_nodes:1024 ~n_objects:100_000 ~flock:32 ~askers:16 ~calls:24 ~rounds:30 ()

let run_cluster_smoke () =
  pf "Location directory, CI-sized smoke (same gates, smaller cluster)\n";
  hr ();
  run_cluster_config ~experiment:"cluster_smoke" ~n_nodes:64 ~n_objects:5_000 ~flock:8 ~askers:8 ~calls:12 ~rounds:12 ()

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Threaded dispatch: interpreter throughput, traces bit-identical      *)
(* ------------------------------------------------------------------ *)

let interp_src =
  {|
object Spinner
  operation spin[rounds : int, spins : int] -> [r : int]
    var i : int <- 0
    var j : int <- 0
    var t : int <- 0
    var u : int <- 0
    var v : int <- 0
    var acc : int <- 0
    loop
      exit when i >= rounds
      i <- i + 1
      j <- 0
      loop
        exit when j >= spins
        j <- j + 1
        t <- acc + j
        u <- t + i
        v <- u - j
        t <- t + v
        acc <- v + t
      end loop
    end loop
    r <- acc
  end spin
end Spinner
|}

(* a mobile mix for the trace gate: movers cross nodes while spinners
   keep every kernel busy, so the trace covers migration, bus stops and
   preemption under both engines *)
let interp_trace_src =
  interp_src
  ^ {|
object Hopper
  operation hop[n : int] -> [r : int]
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      acc <- acc + i * i
      move self to 1
      acc <- acc - i
      move self to 2
      acc <- acc + 3 * i
      move self to 0
    end loop
    r <- acc
  end hop
end Hopper
|}

let run_interp () =
  pf "Threaded dispatch: interpreter throughput vs the fetch/decode loop\n";
  pf "The same kernel executes the same program under both engines; the\n";
  pf "virtual results (insns, cycles, virtual time, result) must be\n";
  pf "identical — only host time may move.  Gate: >= 3x throughput on\n";
  pf "SPARC; the VAX and Sun-3 rows are reported, not gated.  words/insn\n";
  pf "is OCaml minor-heap words per simulated instruction, set-up included.\n";
  hr ();
  let measure arch =
    let prog = Emc.Compile.compile_exn ~name:"interp" ~archs:[ arch ] interp_src in
    let run_once ~threaded () =
      let cl = Core.Cluster.create ~archs:[ arch ] () in
      Ert.Kernel.set_threaded (Core.Cluster.kernel cl 0) threaded;
      Core.Cluster.load_program cl prog;
      let s = Core.Cluster.create_object cl ~node:0 ~class_name:"Spinner" in
      let tid =
        Core.Cluster.spawn cl ~node:0 ~target:s ~op:"spin"
          ~args:[ Ert.Value.Vint 600l; Ert.Value.Vint 600l ]
      in
      let r =
        match Core.Cluster.run_until_result cl tid with
        | Some (Ert.Value.Vint v) -> Int32.to_int v
        | _ -> failwith "interp bench: spinner did not complete"
      in
      ( r,
        Ert.Kernel.insns_executed (Core.Cluster.kernel cl 0),
        Core.Cluster.global_time_us cl )
    in
    let base = run_once ~threaded:false () in
    let thr = run_once ~threaded:true () in
    if base <> thr then
      failwith ("interp bench: threaded dispatch diverged on " ^ arch.A.id);
    let _, insns, _ = base in
    let t_base, t_thr =
      host_times_of_pair (run_once ~threaded:false) (run_once ~threaded:true)
    in
    let words_per_insn ~threaded =
      let w0 = Gc.minor_words () in
      ignore (run_once ~threaded ());
      (Gc.minor_words () -. w0) /. float_of_int insns
    in
    let mips t = float_of_int insns /. t /. 1e6 in
    let rows =
      [
        ("baseline", "fetch/decode", t_base, words_per_insn ~threaded:false);
        ("threaded", "threaded", t_thr, words_per_insn ~threaded:true);
      ]
    in
    List.iter
      (fun (mode, engine, t, w) ->
        pf "%-8s %-12s %12d %11.1f M/s %9.2fx %10.3f\n" arch.A.id engine insns
          (mips t) (t_base /. t) w;
        add_json_row ~experiment:"interp"
          [
            ("arch", jstr arch.A.id);
            ("mode", jstr mode);
            ("insns", jint insns);
            ("host_seconds", jnum t);
            ("minsns_per_sec", jnum (mips t));
            ("speedup_vs_baseline", jnum (t_base /. t));
            ("words_per_insn", jnum w);
          ])
      rows;
    t_base /. t_thr
  in
  pf "%-8s %-12s %12s %14s %10s %10s\n" "arch" "engine" "insns" "throughput"
    "speedup" "words/insn";
  hr ();
  let speedup = measure A.sparc in
  ignore (measure A.vax);
  ignore (measure A.sun3);
  (* trace identity: the threaded engine must reproduce the baseline's
     protocol trace byte for byte *)
  let trace_prog =
    Emc.Compile.compile_exn ~name:"interp_trace"
      ~archs:
        (List.sort_uniq
           (fun a b -> String.compare a.A.id b.A.id)
           [ A.sparc; A.vax; A.sun3; A.hp9000_433 ])
      interp_trace_src
  in
  let trace_run ~threaded =
    let archs = [ A.sparc; A.vax; A.sun3; A.hp9000_433 ] in
    let cl = Core.Cluster.create ~quantum:40 ~archs () in
    for i = 0 to Core.Cluster.n_nodes cl - 1 do
      Ert.Kernel.set_threaded (Core.Cluster.kernel cl i) threaded
    done;
    let trace = Buffer.create 4096 in
    Core.Cluster.set_trace cl (fun line ->
        Buffer.add_string trace line;
        Buffer.add_char trace '\n');
    Core.Cluster.load_program cl trace_prog;
    let h = Core.Cluster.create_object cl ~node:0 ~class_name:"Hopper" in
    let ht =
      Core.Cluster.spawn cl ~node:0 ~target:h ~op:"hop"
        ~args:[ Ert.Value.Vint 3l ]
    in
    let spinners =
      List.init 3 (fun i ->
          let s =
            Core.Cluster.create_object cl ~node:(i + 1) ~class_name:"Spinner"
          in
          Core.Cluster.spawn cl ~node:(i + 1) ~target:s ~op:"spin"
            ~args:[ Ert.Value.Vint 3l; Ert.Value.Vint 40l ])
    in
    Core.Cluster.run cl;
    List.iter
      (fun t -> ignore (Core.Cluster.result cl t))
      (ht :: spinners);
    (Buffer.contents trace, Core.Cluster.global_time_us cl)
  in
  let ref_trace, ref_t = trace_run ~threaded:false in
  let tr, t = trace_run ~threaded:true in
  if tr <> ref_trace || t <> ref_t then begin
    pf "FAIL: threaded trace differs from fetch/decode\n";
    exit 1
  end;
  hr ();
  pf "traces bit-identical to fetch/decode\n";
  if speedup < 3.0 then begin
    pf "FAIL: threaded dispatch below the 3x throughput gate (%.2fx)\n" speedup;
    exit 1
  end;
  pf "threaded dispatch: %.2fx interpreter throughput (gate: >= 3x)\n\n"
    speedup

(* ------------------------------------------------------------------ *)
(* Blit tier: negotiated same-layout migration without translation      *)
(* ------------------------------------------------------------------ *)

let run_blit () =
  pf "Blit tier: negotiated zero-translation migration for same-layout\n";
  pf "pairs.  Wire bytes stay byte-identical to the plan tier; same-\n";
  pf "layout moves skip the translate/rebuild phases entirely and must\n";
  pf "show it on the virtual clock; every other pair falls back to the\n";
  pf "per-datum path, bit for bit.  Gate: skip ratio > 0 and lower\n";
  pf "migration latency on every same-layout pair.\n";
  hr ();
  let skip_counts ~home ~dest =
    let cl =
      Core.Cluster.create ~wire_impl:Enet.Wire.Blit ~archs:[ home; dest ] ()
    in
    ignore (Core.Cluster.compile_and_load cl ~name:"table1" W.table1_src);
    let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
    let tid =
      Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip"
        ~args:[ Ert.Value.Vint 1l; Ert.Value.Vint 3l ]
    in
    ignore (Core.Cluster.run_until_result cl tid);
    let open Core.Events in
    ( Core.Cluster.total_counter cl (fun c -> c.c_blit_skips),
      Core.Cluster.total_counter cl (fun c -> c.c_blit_fallbacks) )
  in
  let pairs =
    [
      ("Sun-3<->HP433", A.sun3, A.hp9000_433);
      ("HP433<->HP385", A.hp9000_433, A.hp9000_385);
      ("Sun-3<->Sun-3", A.sun3, A.sun3);
      ("SPARC<->Sun-3", A.sparc, A.sun3);
    ]
  in
  pf "%-16s %7s %12s %12s %8s %6s\n" "pair" "layout" "plan us" "blit us"
    "saved" "skips";
  hr ();
  let failed = ref false in
  List.iter
    (fun (name, home, dest) ->
      let plan =
        W.measure_roundtrip ~wire_impl:Enet.Wire.Plan ~home ~dest ~iters:3 ()
      in
      let blit =
        W.measure_roundtrip ~wire_impl:Enet.Wire.Blit ~home ~dest ~iters:3 ()
      in
      if blit.W.rt_bytes_sent <> plan.W.rt_bytes_sent then begin
        pf "FAIL: %s blit wire bytes differ from plan\n" name;
        failed := true
      end;
      let skips, fallbacks = skip_counts ~home ~dest in
      let same = A.same_layout home dest in
      let ratio =
        if skips + fallbacks = 0 then 0.0
        else float_of_int skips /. float_of_int (skips + fallbacks)
      in
      let saved_pct =
        100.0
        *. (plan.W.rt_us_per_trip -. blit.W.rt_us_per_trip)
        /. plan.W.rt_us_per_trip
      in
      pf "%-16s %7s %12.0f %12.0f %7.1f%% %6d\n" name
        (if same then "same" else "mixed")
        plan.W.rt_us_per_trip blit.W.rt_us_per_trip saved_pct skips;
      add_json_row ~experiment:"blit"
        [
          ("pair", jstr name);
          ("same_layout", if same then "true" else "false");
          ("plan_us_per_trip", jnum plan.W.rt_us_per_trip);
          ("blit_us_per_trip", jnum blit.W.rt_us_per_trip);
          ("saved_pct", jnum saved_pct);
          ("bytes", jint blit.W.rt_bytes_sent);
          ("blit_skips", jint skips);
          ("blit_fallbacks", jint fallbacks);
          ("skip_ratio", jnum ratio);
        ];
      if same then begin
        if skips = 0 || fallbacks <> 0 then begin
          pf "FAIL: %s is same-layout but did not skip translation\n" name;
          failed := true
        end;
        if blit.W.rt_us_per_trip >= plan.W.rt_us_per_trip then begin
          pf "FAIL: %s blit not faster than plan\n" name;
          failed := true
        end
      end
      else begin
        if skips <> 0 then begin
          pf "FAIL: %s is mixed-layout but skipped translation\n" name;
          failed := true
        end;
        if blit.W.rt_us_per_trip <> plan.W.rt_us_per_trip then begin
          pf "FAIL: %s blit fallback moved the virtual clock\n" name;
          failed := true
        end
      end)
    pairs;
  hr ();
  if !failed then exit 1;
  pf "same-layout pairs skip translate/rebuild (byte-identical wire);\n";
  pf "mixed pairs fall back to the per-datum path exactly\n\n"

(* ------------------------------------------------------------------ *)
(* Bridge fragments: migration between differently-optimized instances *)
(* ------------------------------------------------------------------ *)

(* One observable action (the print) per iteration puts a syscall stop in
   the loop block, so -O2 elides the back-edge poll — the stop a preempted
   thread is most often evicted at, and the one a bridged landing resumes
   through (DESIGN.md §16). *)
let bridge_src =
  {|
object Worker
  operation work[n : int] -> [r : int]
    var acc : int <- 0
    var i : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      print[i]
      acc <- acc + i
    end loop
    r <- acc
  end work
end Worker
|}

(* Run [workers] loop threads one after another on node 0 (SPARC -O0),
   each evicted to node 1 (VAX, [dest_level]) after [pre] events of its
   own run — identical capture points, so repeats reuse the first
   landing's fragment.  Sequential, because two concurrent workers
   interleave their two-stop prints on the shared output stream. *)
let bridge_run ~dest_level ~n ~pre ~workers =
  let cl = Core.Cluster.create ~quantum:3 ~archs:[ A.sparc; A.vax ] () in
  Core.Cluster.set_opt_level cl ~node:1 dest_level;
  ignore (Core.Cluster.compile_and_load cl ~name:"bridge" bridge_src);
  let k0 = Core.Cluster.kernel cl 0 in
  let results =
    List.init workers (fun _ ->
        let w = Core.Cluster.create_object cl ~node:0 ~class_name:"Worker" in
        let tid =
          Core.Cluster.spawn cl ~node:0 ~target:w ~op:"work"
            ~args:[ Ert.Value.Vint (Int32.of_int n) ]
        in
        for _ = 1 to pre do
          ignore (Core.Cluster.step_once cl)
        done;
        List.iter
          (fun (s : Ert.Thread.segment) ->
            if s.Ert.Thread.seg_thread = tid && s.Ert.Thread.seg_live then
              Core.Cluster.evict_thread cl ~node:0 ~seg_id:s.Ert.Thread.seg_id
                ~dest:1)
          (Ert.Kernel.segments k0);
        Core.Cluster.run_until_result cl tid)
  in
  let out =
    let buf = Buffer.create 256 in
    for i = 0 to Core.Cluster.n_nodes cl - 1 do
      Buffer.add_string buf (Core.Cluster.output cl ~node:i)
    done;
    Buffer.contents buf
  in
  let open Core.Events in
  let bridged = Core.Cluster.total_counter cl (fun c -> c.c_bridged) in
  let hits, misses = Core.Cluster.bridge_stats cl in
  (results, out, bridged, (hits, misses), Core.Cluster.global_time_us cl)

let run_bridge () =
  pf "Bridge fragments: a thread evicted mid-loop lands in a differently\n";
  pf "optimized code instance.  When it was parked at a stop the target's\n";
  pf "-O2 instance elides, the landing resumes through a compiled bridge\n";
  pf "fragment; the alternative column lands the same capture in the\n";
  pf "target's -O0 instance instead.  Gates: exactly-once actions, at\n";
  pf "least one bridged landing, fragment-cache hits on repeat, and -O2\n";
  pf "beating -O0 on the undisturbed loop.\n";
  hr ();
  let n = 14 in
  let expected_result = Int32.of_int (n * (n + 1) / 2) in
  (* a print's two stops may land on different hosts when the thread is
     evicted between them, splitting one line across output streams —
     legal, so the exactly-once gate compares the byte multiset of all
     node outputs, not lines *)
  let chars s = List.sort compare (List.init (String.length s) (String.get s)) in
  let one_run = String.concat "" (List.init n (fun i -> string_of_int (i + 1) ^ "\n")) in
  let exact ~workers results out =
    List.for_all (fun r -> r = Some (Ert.Value.Vint expected_result)) results
    && chars out = chars (String.concat "" (List.init workers (fun _ -> one_run)))
  in
  (* scan eviction points until the trap lands on the elided poll stop *)
  let rec scan pre =
    if pre > 80 then begin
      pf "ERROR: no eviction point parked at the loop's poll stop\n";
      exit 1
    end;
    let results, out, bridged, _, t = bridge_run ~dest_level:Emc.Opt.O2 ~n ~pre ~workers:1 in
    if not (exact ~workers:1 results out) then begin
      pf "FAIL: migrated run diverged at pre=%d (exactly-once gate)\n" pre;
      exit 1
    end;
    if bridged > 0 then (pre, t) else scan (pre + 1)
  in
  let pre, t_bridge = scan 0 in
  (* the same capture point landed in the target's -O0 instance: no
     bridge is needed, but the thread finishes in unoptimized code *)
  let results0, out0, bridged0, _, t_o0 =
    bridge_run ~dest_level:Emc.Opt.O0 ~n ~pre ~workers:1
  in
  if not (exact ~workers:1 results0 out0) then begin
    pf "FAIL: -O0 landing diverged (exactly-once gate)\n";
    exit 1
  end;
  (* repeat migrations: a second worker evicted at the same point in its
     own run reuses the first landing's fragment; scan again because the
     cluster the second worker starts from is no longer pristine *)
  let rec scan_cache pre =
    if pre > 80 then begin
      pf "ERROR: no eviction point reused the fragment cache\n";
      exit 1
    end;
    let results2, out2, bridged2, (hits, misses), _ =
      bridge_run ~dest_level:Emc.Opt.O2 ~n ~pre ~workers:2
    in
    if not (exact ~workers:2 results2 out2) then begin
      pf "FAIL: two-worker run diverged at pre=%d (exactly-once gate)\n" pre;
      exit 1
    end;
    if hits = 0 then scan_cache (pre + 1) else (bridged2, hits, misses)
  in
  let bridged2, hits, misses = scan_cache 0 in
  (* -O2 vs -O0 on the undisturbed loop, same machine, no migration *)
  let solo level =
    let cl = Core.Cluster.create ~archs:[ A.vax ] () in
    Core.Cluster.set_opt_level cl ~node:0 level;
    ignore (Core.Cluster.compile_and_load cl ~name:"solo" bridge_src);
    let w = Core.Cluster.create_object cl ~node:0 ~class_name:"Worker" in
    let tid =
      Core.Cluster.spawn cl ~node:0 ~target:w ~op:"work"
        ~args:[ Ert.Value.Vint 64l ]
    in
    ignore (Core.Cluster.run_until_result cl tid);
    Core.Cluster.global_time_us cl
  in
  let solo_o0 = solo Emc.Opt.O0 and solo_o2 = solo Emc.Opt.O2 in
  let ratio = if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses) in
  pf "%-26s %12s %12s\n"
    (Printf.sprintf "landing (evict @ %d)" pre)
    "virtual us" "bridged";
  hr ();
  pf "%-26s %12.1f %12d\n" "-O2 + bridge fragment" t_bridge 1;
  pf "%-26s %12.1f %12d\n" "-O0 (no bridge needed)" t_o0 bridged0;
  hr ();
  pf "fragment cache over repeat migrations: %d hits / %d misses\n" hits misses;
  pf "undisturbed loop on the VAX: -O0 %.1f us, -O2 %.1f us (%.1f%% faster)\n"
    solo_o0 solo_o2
    (100.0 *. (solo_o0 -. solo_o2) /. solo_o0);
  add_json_row ~experiment:"bridge"
    [
      ("pair", jstr "SPARC->VAX");
      ("evict_pre", jint pre);
      ("iterations", jint n);
      ("bridge_virtual_us", jnum t_bridge);
      ("o0_landing_virtual_us", jnum t_o0);
      ("threads_bridged", jint 1);
      ("threads_bridged_repeat", jint bridged2);
      ("frag_cache_hits", jint hits);
      ("frag_cache_misses", jint misses);
      ("frag_cache_hit_ratio", jnum ratio);
      ("solo_o0_virtual_us", jnum solo_o0);
      ("solo_o2_virtual_us", jnum solo_o2);
      ("exactly_once", jstr "pass");
    ];
  if bridged2 < 2 then begin
    pf "FAIL: repeat migrations did not both bridge (%d)\n" bridged2;
    exit 1
  end;
  if hits = 0 then begin
    pf "FAIL: repeated migration never hit the fragment cache\n";
    exit 1
  end;
  if solo_o2 >= solo_o0 then begin
    pf "FAIL: -O2 not faster than -O0 on the undisturbed loop (%.1f >= %.1f)\n"
      solo_o2 solo_o0;
    exit 1
  end;
  pf "exactly-once, bridged landings, cache hits and the -O2 win all hold\n\n"

(* ------------------------------------------------------------------ *)
(* gc: stop-the-world pause vs incremental max increment pause on a
   large heap (DESIGN.md §17).

   The heap is built at the kernel level — ~100k live string blocks
   referenced from root vectors handed to the collector as
   [extra_addrs], plus ~50k unreferenced blocks — so the measurement
   isolates collector cost from program execution.  Both tiers are
   charged exactly as the cluster charges them (the Cost_model gc
   charges: STW in one lump; incremental, the cycle-open charge and
   then one charge per increment), and both must report identical
   live/swept/bytes-freed accounting.

   Gate: the incremental tier's worst single increment must pause the
   node for less than 1/5 of the STW full-collect pause. *)

let run_gc () =
  let module K = Ert.Kernel in
  let module L = Emc.Layout in
  let module C = Mobility.Cost_model in
  let n_live = 100_000 and n_dead = 50_000 in
  let budget = 4096 in
  pf "gc: incremental tri-color vs stop-the-world at a %d-block heap\n"
    (n_live + n_dead);
  hr ();
  (* identical heaps for both tiers: root vectors of [chunk] string
     blocks each, dead strings interleaved so the sweep walks a mixed
     population *)
  let build () =
    let k = K.create ~node_id:0 ~arch:A.sparc () in
    let mem = K.mem k in
    let chunk = 1000 in
    let roots = ref [] in
    let made = ref 0 in
    let dead = ref 0 in
    let dead_per_chunk = n_dead / (n_live / chunk) in
    while !made < n_live do
      let n = min chunk (n_live - !made) in
      let vec = K.make_vector k ~kind:L.kind_string ~len:n in
      for j = 0 to n - 1 do
        let s = K.make_string k (Printf.sprintf "live-%d" (!made + j)) in
        Isa.Memory.store32 mem (vec + L.vec_elems + (4 * j)) (Int32.of_int s)
      done;
      made := !made + n;
      for j = 0 to dead_per_chunk - 1 do
        ignore (K.make_string k (Printf.sprintf "dead-%d" (!dead + j)) : int)
      done;
      dead := !dead + dead_per_chunk;
      roots := vec :: !roots
    done;
    (k, !roots)
  in
  (* stop-the-world: one lump pause, cluster-style charge *)
  let k_stw, roots_stw = build () in
  let stw = Ert.Gc.create k_stw in
  let t0 = K.time_us k_stw in
  Ert.Gc.collect stw ~extra_roots:[] ~extra_addrs:roots_stw;
  K.charge_insns k_stw (C.gc_collect_insns ~live:(Ert.Gc.live stw));
  let stw_pause = K.time_us k_stw -. t0 in
  (* incremental: same collection as bounded increments *)
  let k_inc, roots_inc = build () in
  let inc = Ert.Gc.create k_inc in
  Ert.Gc.start inc ~extra_roots:[] ~extra_addrs:roots_inc;
  let increments = ref 0 in
  let max_pause = ref 0.0 in
  let total_us = ref 0.0 in
  let note t0 =
    let p = K.time_us k_inc -. t0 in
    if p > !max_pause then max_pause := p;
    total_us := !total_us +. p
  in
  (* the first increment carries the cycle-open charge, as in the
     cluster's [gc_increment] *)
  let t0 = K.time_us k_inc in
  K.charge_insns k_inc C.gc_cycle_open_insns;
  let rec drive t0 =
    incr increments;
    let scanned = Ert.Gc.step inc ~budget in
    K.charge_insns k_inc (C.gc_increment_insns ~scanned);
    note t0;
    if Ert.Gc.is_open inc then drive (K.time_us k_inc)
  in
  drive t0;
  let ratio = !max_pause /. stw_pause in
  pf "%-14s %10s %10s %12s %12s\n" "tier" "live" "swept" "pause(us)"
    "total(us)";
  hr ();
  pf "%-14s %10d %10d %12.1f %12.1f\n" "stop-the-world"
    (Ert.Gc.live stw) (Ert.Gc.swept stw) stw_pause stw_pause;
  pf "%-14s %10d %10d %12.1f %12.1f  (%d increments)\n" "incremental"
    (Ert.Gc.live inc) (Ert.Gc.swept inc) !max_pause !total_us
    !increments;
  pf "max increment pause / stw pause: %.3f (gate: < 0.2); gc work \
     overhead: %+.1f%%\n"
    ratio
    (100.0 *. (!total_us -. stw_pause) /. stw_pause);
  add_json_row ~experiment:"gc"
    [
      ("heap_blocks", jint (n_live + n_dead));
      ("budget_slots", jint budget);
      ("live", jint (Ert.Gc.live inc));
      ("swept", jint (Ert.Gc.swept inc));
      ("bytes_freed", jint (Ert.Gc.bytes_freed inc));
      ("stw_pause_us", jnum stw_pause);
      ("inc_max_pause_us", jnum !max_pause);
      ("inc_total_us", jnum !total_us);
      ("increments", jint !increments);
      ("pause_ratio", jnum ratio);
    ];
  if
    (Ert.Gc.live stw) <> (Ert.Gc.live inc)
    || (Ert.Gc.swept stw) <> (Ert.Gc.swept inc)
    || (Ert.Gc.bytes_freed stw) <> (Ert.Gc.bytes_freed inc)
  then begin
    pf "FAIL: tiers disagree on accounting (stw %d/%d/%d, inc %d/%d/%d)\n"
      (Ert.Gc.live stw) (Ert.Gc.swept stw)
      (Ert.Gc.bytes_freed stw) (Ert.Gc.live inc)
      (Ert.Gc.swept inc) (Ert.Gc.bytes_freed inc);
    exit 1
  end;
  if (Ert.Gc.swept inc) < n_dead then begin
    pf "FAIL: expected >= %d swept, got %d\n" n_dead
      (Ert.Gc.swept inc);
    exit 1
  end;
  if ratio >= 0.2 then begin
    pf "FAIL: incremental max pause %.1fus is not < 1/5 of the stw pause \
       %.1fus\n"
      !max_pause stw_pause;
    exit 1
  end;
  pf "identical accounting; max pause gate holds\n\n"

let all_experiments =
  [
    ("table1", run_table1);
    ("intranode", run_intranode);
    ("conversion", run_conversion);
    ("marshal", run_marshal);
    ("sweep", run_sweep);
    ("ablation", run_ablation);
    ("fig2", run_fig2);
    ("fig3", run_fig3);
    ("fig4", run_fig3);
    ("scaling", run_scaling);
    ("cluster", run_cluster);
    ("cluster_smoke", run_cluster_smoke);
    ("faults", run_faults);
    ("spans", run_spans);
    ("evict", run_evict);
    ("interp", run_interp);
    ("blit", run_blit);
    ("bridge", run_bridge);
    ("gc", run_gc);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse acc rest
    | [ "--json" ] ->
      Printf.eprintf "--json requires a file argument\n";
      exit 1
    | "--trace-out" :: path :: rest ->
      trace_out_flag := Some path;
      parse acc rest
    | [ "--trace-out" ] ->
      Printf.eprintf "--trace-out requires a file argument\n";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  (match args with
  | [] ->
    pf "Reproduction of the evaluation of Steensgaard & Jul, SOSP 1995:\n";
    pf "\"Object and Native Code Thread Mobility Among Heterogeneous Computers\"\n\n";
    (* fig4 aliases fig3; cluster_smoke is the CI-sized cut of cluster *)
    List.iter
      (fun (name, f) ->
        if name <> "fig4" && name <> "cluster_smoke" then f ())
      all_experiments;
    run_bechamel ()
  | [ "bechamel" ] -> run_bechamel ()
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name all_experiments with
        | Some f -> f ()
        | None when name = "bechamel" -> run_bechamel ()
        | None ->
          Printf.eprintf "unknown experiment %s (have: %s, bechamel)\n" name
            (String.concat ", " (List.map fst all_experiments));
          exit 1)
      names);
  match !json_path with Some p -> write_json p | None -> ()
