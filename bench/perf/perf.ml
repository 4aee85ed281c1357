(* Host-time benchmark of the simulator.

   A run executes one workload (see jobs.ml) as a closed loop of
   independent jobs for a fixed host-time budget, in one process on one
   domain, and prints every metric with its unit; the last line of
   standard output is the result as one JSON object.

     perf.exe --workload W --seed S --seconds N --trace 0|1
              [--json FILE] [--trace-out FILE]
     perf.exe --compare A.json B.json

   --trace 0 measures the end-to-end metrics.  --trace 1 spends half the
   budget running jobs untraced (exact counters, untraced job times) and
   half running the same jobs again, stepping each cluster by hand,
   timing every step and attributing it to a layer by the events it
   emitted; the two passes must agree exactly on every virtual number.
   Only calls into public layer functions are timed, so the simulator
   itself is unchanged. *)

module C = Core.Cluster
module E = Core.Events

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let die msg =
  prerr_endline ("perf: " ^ msg);
  exit 2

(* ------------------------------------------------------------------ *)
(* statistics                                                           *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest rank *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float n)) - 1)))

(* quartiles as Python's statistics.quantiles(data, n=4) computes them
   (its default 'exclusive' method); needs at least two values *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.0)
    [ 1; 2; 3 ]

(* interquartile distance as a share of the median *)
let spread l =
  match quartiles l with
  | [ q1; q2; q3 ] -> (q3 -. q1) /. q2
  | _ -> nan

let sum_float f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* ------------------------------------------------------------------ *)
(* exact counters, read from a cluster after its job                     *)

let sum_kernels cl f = Array.fold_left (fun acc k -> acc + f k) 0 (C.kernels cl)
let sum_engines cl f = Array.fold_left (fun acc e -> acc + f e) 0 (C.engines cl)
let bus f cl = C.total_counter cl f
let dir_stat pick cl = pick (C.directory_stats cl)

let counters : (string * (C.t -> int)) list =
  [
    ("engine.pops", fun cl -> sum_engines cl Core.Engine.pops);
    ("engine.stale_pops", fun cl -> sum_engines cl Core.Engine.stale_pops);
    ("engine.pushes", fun cl -> sum_engines cl Core.Engine.pushes);
    ("isa.insns", fun cl -> sum_kernels cl Ert.Kernel.insns_executed);
    ("kernel.steps", bus (fun c -> c.E.c_steps));
    ("netsim.messages", fun cl -> Enet.Netsim.messages_sent (C.network cl));
    ("netsim.bytes", fun cl -> Enet.Netsim.bytes_sent (C.network cl));
    ("enet.conv_calls", bus (fun c -> c.E.c_conv_calls));
    ("enet.conv_bytes", bus (fun c -> c.E.c_conv_bytes));
    ("enet.pool_hits", bus (fun c -> c.E.c_pool_hits));
    ("enet.pool_misses", bus (fun c -> c.E.c_pool_misses));
    ("enet.copies_saved", bus (fun c -> c.E.c_copies_saved));
    ("mobility.plan_compiles", bus (fun c -> c.E.c_plan_compiles));
    ("mobility.plan_hits", bus (fun c -> c.E.c_plan_hits));
    ("mobility.blit_skips", bus (fun c -> c.E.c_blit_skips));
    ("mobility.blit_fallbacks", bus (fun c -> c.E.c_blit_fallbacks));
    ("mobility.moves_in", bus (fun c -> c.E.c_moves_in));
    ("mobility.group_moves", bus (fun c -> c.E.c_group_moves));
    ("mobility.group_objects", bus (fun c -> c.E.c_group_objects));
    ("loc.locates", bus (fun c -> c.E.c_locates));
    ("loc.locate_hops", bus (fun c -> c.E.c_locate_hops));
    ("loc.dir_hits", dir_stat (fun (_, _, hits, _) -> hits));
    ("loc.dir_misses", dir_stat (fun (_, _, _, misses) -> misses));
    ("loc.collapses", bus (fun c -> c.E.c_collapses));
    ("loc.searches", bus (fun c -> c.E.c_searches));
    ("gc.collections", bus (fun c -> c.E.c_collections));
    ("gc.increments", bus (fun c -> c.E.c_gc_increments));
    ("gc.bytes_freed", bus (fun c -> c.E.c_gc_bytes_freed));
  ]

let counter_index name =
  let rec go i = function
    | [] -> invalid_arg name
    | (n, _) :: rest -> if n = name then i else go (i + 1) rest
  in
  go 0 counters

let i_insns = counter_index "isa.insns"
let i_bytes = counter_index "netsim.bytes"
let i_moves = counter_index "mobility.moves_in"
let i_pool_hits = counter_index "enet.pool_hits"
let i_pool_misses = counter_index "enet.pool_misses"

(* the counters a job determines by itself.  The encode-buffer pool is
   shared by every cluster in the process, so whether a buffer was
   reused depends on the jobs run before; only the sum of hits and
   misses belongs to the job. *)
let exact_counts counts =
  let c = Array.copy counts in
  c.(i_pool_hits) <- counts.(i_pool_hits) + counts.(i_pool_misses);
  c.(i_pool_misses) <- 0;
  c

(* simulated heap in use: Heap.brk - start, summed over nodes *)
let sim_heap_bytes cl =
  sum_kernels cl (fun k ->
      let h = Ert.Kernel.heap k in
      Ert.Heap.brk h - Ert.Heap.start h)

(* ------------------------------------------------------------------ *)
(* one job                                                              *)

type outcome = {
  index : int;
  verdict : (string, string) result;  (** rendered results, or the failure *)
  events : int;
  virtual_us : float;
  counts : int array;  (** [counters], in order *)
  heap_bytes : int;
  start_ns : float;
  build_ns : float;
  run_ns : float;
  words : float;  (** OCaml words allocated by build and run *)
}

let job_ms o = (o.build_ns +. o.run_ns) /. 1e6
let run_s o = Float.max (o.run_ns /. 1e9) 1e-9
let failed o = Result.is_error o.verdict

(* OCaml words allocated so far, minor and directly major: the simulated
   memories are large blocks that bypass the minor heap *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* build job [index], drive its cluster to quiescence, then check it;
   nothing a job raises escapes *)
let run_job (w : Jobs.t) prog ~seed ~index ~drive =
  let guard f = try f () with e -> Error (Printexc.to_string e) in
  let w0 = allocated_words () in
  let t0 = now_ns () in
  let job = guard (fun () -> Ok (w.Jobs.build prog (Jobs.rng ~seed ~index))) in
  let t1 = now_ns () in
  let ran = Result.bind job (fun j -> guard (fun () -> Ok (drive ~index j.Jobs.cluster))) in
  let t2 = now_ns () in
  let w1 = allocated_words () in
  let verdict = Result.bind ran (fun () -> guard (Result.get_ok job).Jobs.check) in
  let read f = match job with Ok j -> ( try f j.Jobs.cluster with _ -> 0) | Error _ -> 0 in
  {
    index;
    verdict;
    events = read C.events_processed;
    virtual_us = (match job with Ok j -> C.global_time_us j.Jobs.cluster | Error _ -> 0.0);
    counts = Array.of_list (List.map (fun (_, f) -> read f) counters);
    heap_bytes = read sim_heap_bytes;
    start_ns = t0;
    build_ns = t1 -. t0;
    run_ns = t2 -. t1;
    words = w1 -. w0;
  }

(* jobs 0, 1, ... until [seconds] have passed and at least [min_jobs]
   have run *)
let closed_loop ~seconds ~min_jobs f =
  let deadline = now_ns () +. (seconds *. 1e9) in
  let rec go i acc =
    if i >= min_jobs && now_ns () >= deadline then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []

(* the virtual numbers of one job: result, events, virtual time, bytes *)
let fingerprint_line o =
  Printf.sprintf "%d %s %d %h %d\n" o.index
    (match o.verdict with Ok r -> r | Error e -> "FAILED " ^ e)
    o.events o.virtual_us o.counts.(i_bytes)

let fingerprint outs =
  Digest.to_hex (Digest.string (String.concat "" (List.map fingerprint_line outs)))

(* ------------------------------------------------------------------ *)
(* the traced run: per-step host time, attributed by emitted events      *)

(* step classes in priority order: a step is charged to the highest
   class of any event it emitted.  [c_build] is the job's construction,
   never an event. *)
let c_engine = 0 (* emitted nothing, such as the final quiescent step *)
let c_dispatch = 1
let c_deliver_rpc = 2
let c_deliver_loc = 3
let c_deliver_move = 4
let c_send = 5
let c_gc = 6
let c_build = 7

let class_names =
  [| "engine"; "dispatch"; "deliver_rpc"; "deliver_loc"; "deliver_move"; "send"; "gc"; "build" |]

(* by [Mobility.Marshal.describe]'s wording of the delivered message *)
let class_of_desc desc =
  let starts p = String.starts_with ~prefix:p desc in
  if starts "move of" || starts "group move of" then c_deliver_move
  else if starts "locate" || starts "directory" || starts "location hint" then c_deliver_loc
  else c_deliver_rpc

let class_of_event = function
  | E.Ev_step _ -> c_dispatch
  | E.Ev_msg_deliver { desc; _ } -> class_of_desc desc
  | E.Ev_move_finish _ -> c_deliver_move
  | E.Ev_move_start _ | E.Ev_group_move _ | E.Ev_evict _ -> c_send
  | E.Ev_gc _ | E.Ev_gc_phase _ -> c_gc
  | _ -> c_engine

type tracer = {
  origin_ns : float;
  workload : string;
  self_ns : float array;  (** per class *)
  steps : int array;
  hists : Obs.Hist.t array;  (** step durations, microseconds *)
  mutable cls : int;  (** class of the step in progress *)
  mutable spans : Obs.Span.t list;
}

let tracer ~workload =
  let n = Array.length class_names in
  {
    origin_ns = now_ns ();
    workload;
    self_ns = Array.make n 0.0;
    steps = Array.make n 0;
    hists = Array.init n (fun _ -> Obs.Hist.create ());
    cls = c_engine;
    spans = [];
  }

(* jobs whose steps are kept as spans; every job gets job/build/run *)
let detail_jobs = 2

let job_seq = 1
let build_seq = 2
let run_seq = 3

(* one id space per job: id_node is the job index *)
let add_span tr ~job ~seq ?parent ~name t0 t1 =
  let id seq = { Obs.Span.id_node = job; id_seq = seq } in
  tr.spans <-
    {
      Obs.Span.name;
      node = job;
      arch_pair = tr.workload;
      t_start_us = (t0 -. tr.origin_ns) /. 1e3;
      t_end_us = (t1 -. tr.origin_ns) /. 1e3;
      id = id seq;
      parent = Option.map id parent;
      bytes = 0;
    }
    :: tr.spans

let charge tr c ns =
  tr.self_ns.(c) <- tr.self_ns.(c) +. ns;
  tr.steps.(c) <- tr.steps.(c) + 1;
  Obs.Hist.add tr.hists.(c) (ns /. 1e3)

let drive_traced tr ~index cl =
  C.subscribe_events cl (fun ev ->
      let c = class_of_event ev in
      if c > tr.cls then tr.cls <- c);
  (* consecutive steps of one class coalesce into one detail span *)
  let detail = index < detail_jobs in
  let seq = ref run_seq and open_cls = ref (-1) and open_t0 = ref 0.0 and open_t1 = ref 0.0 in
  let flush () =
    if !open_cls >= 0 then begin
      incr seq;
      add_span tr ~job:index ~seq:!seq ~parent:run_seq ~name:class_names.(!open_cls) !open_t0
        !open_t1
    end
  in
  let running = ref true in
  while !running do
    tr.cls <- c_engine;
    let t0 = now_ns () in
    running := C.step_once cl;
    let t1 = now_ns () in
    let c = tr.cls in
    charge tr c (t1 -. t0);
    if detail then
      if c = !open_cls then open_t1 := t1
      else begin
        flush ();
        open_cls := c;
        open_t0 := t0;
        open_t1 := t1
      end
  done;
  if detail then flush ()

(* charge a finished traced job's build and add its job/build/run spans *)
let record_job tr o =
  let t1 = o.start_ns +. o.build_ns in
  let t2 = t1 +. o.run_ns in
  charge tr c_build o.build_ns;
  add_span tr ~job:o.index ~seq:job_seq ~name:"job" o.start_ns t2;
  add_span tr ~job:o.index ~seq:build_seq ~parent:job_seq ~name:"build" o.start_ns t1;
  add_span tr ~job:o.index ~seq:run_seq ~parent:job_seq ~name:"run" t1 t2

(* ------------------------------------------------------------------ *)
(* set-up: compile the program and build the first job                   *)

(* One set-up takes milliseconds, and this host slows down for seconds at
   a time, so set-up is repeated [setup_reps] times spread evenly over
   the measured loop and reported as the median. *)
let setup_reps = 21

type setup = { prog : Emc.Compile.program; setup_s : float; compile_ms : float }

let setup (w : Jobs.t) ~seed =
  let t0 = now_ns () in
  let prog = Emc.Compile.compile_exn ~name:w.Jobs.name ~archs:w.Jobs.archs w.Jobs.source in
  let t1 = now_ns () in
  ignore (w.Jobs.build prog (Jobs.rng ~seed ~index:0));
  let t2 = now_ns () in
  { prog; setup_s = (t2 -. t0) /. 1e9; compile_ms = (t1 -. t0) /. 1e6 }

(* ------------------------------------------------------------------ *)
(* golden fingerprints, and the metric list BENCHMARK.json declares      *)

let golden_file = "bench/perf/golden.txt"

(* lines "workload seed prefix-jobs fingerprint"; others are ignored *)
let golden ~workload ~seed =
  let lines =
    try In_channel.with_open_text golden_file In_channel.input_lines
    with Sys_error msg -> die msg
  in
  List.find_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ w; s; n; hex ] when w = workload && int_of_string_opt s = Some seed ->
        Option.map (fun n -> (n, hex)) (int_of_string_opt n)
      | _ -> None)
    lines

let benchmark () =
  try Json.read_file "BENCHMARK.json" with Json.Error msg -> die ("BENCHMARK.json: " ^ msg)

let declared key =
  List.map
    (fun m -> (Json.to_string_exn (Json.member "name" m), Json.to_string_exn (Json.member "unit" m)))
    (Json.to_list (Json.member key (benchmark ())))

(* ------------------------------------------------------------------ *)
(* metrics: (name, value, unit)                                         *)

let end_to_end ~setup_s ~peak_heap_mb outs =
  let ok = List.filter (fun o -> not (failed o)) outs in
  [
    ("setup_s", setup_s, "s");
    ("job_ms_p50", median (List.map job_ms ok), "ms");
    ("events_per_s", median (List.map (fun o -> float o.events /. run_s o) ok), "1/s");
    ( "sim_minsns_per_s",
      median (List.map (fun o -> float o.counts.(i_insns) /. run_s o /. 1e6) ok),
      "Minsn/s" );
    ( "alloc_words_per_event",
      sum_float (fun o -> o.words) ok /. sum_float (fun o -> float o.events) ok,
      "words/event" );
    ("peak_heap_mb", peak_heap_mb, "MB");
  ]

(* every workload exercises these classes, so they also get times; the
   others report their share of job time and their step count, because
   a time that reads 0 on every run of a workload measures nothing *)
let timed_classes = [ c_build; c_dispatch; c_engine ]

let per_layer (w : Jobs.t) ~compile_ms ~untraced ~traced tr =
  let n_traced = float (List.length traced) in
  let wall = sum_float (fun o -> o.build_ns +. o.run_ns) traced in
  let common = min (List.length untraced) (List.length traced) in
  let overhead =
    (median (List.map job_ms (take common traced)) /. median (List.map job_ms (take common untraced)))
    -. 1.0
  in
  let class_metrics c =
    let name = class_names.(c) in
    [ (name ^ ".share", 100.0 *. tr.self_ns.(c) /. wall, "%") ]
    @ (if c = c_build then [] else [ (name ^ ".count", float tr.steps.(c) /. n_traced, "count") ])
    @
    if List.mem c timed_classes then
      [
        (name ^ ".self_ms", tr.self_ns.(c) /. 1e6 /. n_traced, "ms");
        (name ^ ".p50_us", Obs.Hist.percentile tr.hists.(c) 50.0, "us");
        (name ^ ".p99_us", Obs.Hist.percentile tr.hists.(c) 99.0, "us");
      ]
    else []
  in
  let prefix = take w.Jobs.prefix untraced in
  [
    ("emc.compile_ms", compile_ms, "ms");
    ("job_ms_p90", percentile (List.map job_ms untraced) 90.0, "ms");
    ("job_ms_p90.samples", float (List.length untraced), "count");
    ( "mobility.moves_per_s",
      median (List.map (fun o -> float o.counts.(i_moves) /. run_s o) untraced),
      "1/s" );
    ("trace.attributed_frac", Array.fold_left ( +. ) 0.0 tr.self_ns /. wall, "frac");
    ("trace.overhead_frac", overhead, "frac");
  ]
  @ List.concat_map class_metrics
      [ c_build; c_dispatch; c_send; c_deliver_move; c_deliver_rpc; c_deliver_loc; c_gc; c_engine ]
  @ List.mapi
      (fun i (name, _) ->
        (name, float (List.fold_left (fun acc o -> acc + o.counts.(i)) 0 prefix), "count"))
      counters
  @ [
      ( "ert.sim_heap_mb_max",
        float (List.fold_left (fun acc o -> max acc o.heap_bytes) 0 prefix) /. 1e6,
        "MB" );
      ("sim.virtual_s", sum_float (fun o -> o.virtual_us) prefix /. 1e6, "sim_s");
    ]

(* ------------------------------------------------------------------ *)
(* a measured run                                                       *)

type opts = {
  workload : Jobs.t;
  seed : int;
  seconds : float;
  trace : bool;
  json_out : string option;
  trace_out : string option;
}

let report_failures label outs =
  List.iter
    (fun o ->
      match o.verdict with
      | Error e -> Printf.eprintf "perf: %s job %d failed: %s\n" label o.index e
      | Ok _ -> ())
    outs

(* append one run to a result file: {"runs": [...]}, one run per line *)
let append_run path run =
  let runs =
    if Sys.file_exists path then
      try Json.to_list (Json.member "runs" (Json.read_file path))
      with Json.Error msg -> die (path ^ ": " ^ msg)
    else []
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\"runs\": [\n%s\n]}\n"
        (String.concat ",\n" (List.map Json.to_string (runs @ [ run ]))))

let measure o =
  let w = o.workload in
  let budget = if o.trace then o.seconds /. 2.0 else o.seconds in
  let first = setup w ~seed:o.seed in
  let prog = first.prog in
  (* only the timings: a retained program would sit in the heap the
     collector marks during every later job *)
  let times (s : setup) = (s.setup_s, s.compile_ms) in
  let setups = ref [ times first ] in
  let setup_every = budget *. 1e9 /. float (setup_reps - 1) in
  let next_setup = ref (now_ns () +. setup_every) in
  (* the heap's high-water mark after the prefix: set-up plus a fixed
     sequence of jobs, so it depends on the seed alone; the later set-ups
     wait for it *)
  let peak_heap_mb = ref nan in
  let untraced_job i =
    if i >= w.Jobs.prefix && List.length !setups < setup_reps && now_ns () >= !next_setup
    then begin
      setups := times (setup w ~seed:o.seed) :: !setups;
      next_setup := !next_setup +. setup_every
    end;
    let out = run_job w prog ~seed:o.seed ~index:i ~drive:(fun ~index:_ cl -> C.run cl) in
    if i = w.Jobs.prefix - 1 then
      peak_heap_mb :=
        float (Gc.quick_stat ()).Gc.top_heap_words *. float (Sys.word_size / 8) /. 1e6;
    out
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let untraced = closed_loop ~seconds:budget ~min_jobs:w.Jobs.prefix untraced_job in
  let setup_s = median (List.map fst !setups) in
  let compile_ms = median (List.map snd !setups) in
  report_failures "untraced" untraced;
  let prefix = take w.Jobs.prefix untraced in
  let fp = fingerprint prefix in
  Printf.printf "fingerprint %s seed=%d jobs=%d %s\n" w.Jobs.name o.seed w.Jobs.prefix fp;
  (match golden ~workload:w.Jobs.name ~seed:o.seed with
  | Some (n, hex) when n <> w.Jobs.prefix || hex <> fp ->
    problem "fingerprint %s differs from the golden %d-job %s in %s" fp n hex golden_file
  | _ -> ());
  let traced, metrics =
    if not o.trace then ([], end_to_end ~setup_s ~peak_heap_mb:!peak_heap_mb untraced)
    else begin
      let tr = tracer ~workload:w.Jobs.name in
      let traced =
        closed_loop ~seconds:budget ~min_jobs:w.Jobs.prefix (fun i ->
            let out = run_job w prog ~seed:o.seed ~index:i ~drive:(drive_traced tr) in
            record_job tr out;
            out)
      in
      report_failures "traced" traced;
      (* the determinism check: tracing must not move a virtual number *)
      List.iter2
        (fun u t ->
          if fingerprint_line u <> fingerprint_line t || exact_counts u.counts <> exact_counts t.counts then
            problem "job %d: tracing moved a virtual number (traced: %s; untraced: %s)" u.index
              (String.trim (fingerprint_line t)) (String.trim (fingerprint_line u)))
        prefix (take w.Jobs.prefix traced);
      let path =
        match o.trace_out with
        | Some p -> p
        | None -> Printf.sprintf "bench/perf/out/trace-%s-%d.json" w.Jobs.name o.seed
      in
      (try
         if not (Sys.file_exists (Filename.dirname path)) then Sys.mkdir (Filename.dirname path) 0o755;
         Out_channel.with_open_bin path (fun oc ->
             output_string oc (Obs.Trace.to_json (List.rev tr.spans)));
         match Obs.Trace.validate_file path with
         | Ok n -> Printf.printf "trace %s: %d spans\n" path n
         | Error e -> problem "trace %s fails validation: %s" path e
       with Sys_error e -> problem "trace %s: %s" path e);
      (traced, per_layer w ~compile_ms ~untraced ~traced tr)
    end
  in
  let outs = untraced @ traced in
  let n_failed = List.length (List.filter failed outs) in
  if n_failed > 0 then problem "%d of %d jobs failed" n_failed (List.length outs);
  (* the printed metrics must be exactly those BENCHMARK.json declares *)
  let declared = declared (if o.trace then "per_layer" else "end_to_end") in
  if declared <> List.map (fun (n, _, u) -> (n, u)) metrics then
    problem "metrics differ from those BENCHMARK.json declares";
  List.iter
    (fun (n, v, u) ->
      if not (Float.is_finite v) then problem "metric %s is not finite" n;
      Printf.printf "%-28s %18.6f %s\n" n v u)
    metrics;
  let correct = !problems = [] in
  List.iter (fun p -> prerr_endline ("perf: " ^ p)) (List.rev !problems);
  let value v = if Float.is_finite v then Json.Num v else Json.Null in
  let result =
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float (List.length outs)));
      ("failed", Json.Num (float n_failed));
      ( "metrics",
        Json.Obj
          (List.map (fun (n, v, u) -> (n, Json.Obj [ ("value", value v); ("unit", Json.Str u) ])) metrics)
      );
    ]
  in
  Option.iter
    (fun path ->
      append_run path
        (Json.Obj
           (("workload", Json.Str w.Jobs.name)
           :: ("seed", Json.Num (float o.seed))
           :: ("trace", Json.Num (if o.trace then 1.0 else 0.0))
           :: result)))
    o.json_out;
  print_endline (Json.to_string (Json.Obj result));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* --compare: per-metric deltas between two result files                 *)

type verdict = Ok_within | Regressed | Unresolved | Better

let verdict_name = function
  | Ok_within -> "ok"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"
  | Better -> "better"

(* [delta] is B's median change against A's, positive when worse *)
let judge ~bound ~lower_better a b =
  let better x y = if lower_better then x < y else x > y in
  let ma = median a and mb = median b in
  let delta = (if lower_better then mb -. ma else ma -. mb) /. ma in
  let all_better = List.for_all (fun x -> List.for_all (better x) a) b in
  let v =
    if List.length a < 2 || List.length b < 2 then Unresolved
    else if spread a > bound || spread b > bound then if all_better then Better else Unresolved
    else if delta > bound then Regressed
    else if all_better && -.delta > spread a then Better
    else Ok_within
  in
  (delta, v)

let compare_files path_a path_b =
  let bench = benchmark () in
  let runs path =
    try Json.to_list (Json.member "runs" (Json.read_file path))
    with Json.Error msg -> die (path ^ ": " ^ msg)
  in
  let ra = runs path_a and rb = runs path_b in
  let metrics = Json.to_list (Json.member "end_to_end" bench) in
  let str k j = Json.to_string_exn (Json.member k j) in
  let values runs ~workload name =
    List.filter_map
      (fun r ->
        if str "workload" r = workload && Json.member "trace" r = Json.Num 0.0 then
          match Json.member "value" (Json.member name (Json.member "metrics" r)) with
          | Json.Num v -> Some v
          | _ -> None
        else None)
      runs
  in
  Printf.printf "B = %s against A = %s: change of B's median, + is worse\n" path_b path_a;
  Printf.printf "%-10s" "workload";
  List.iter
    (fun m ->
      Printf.printf " %22s"
        (Printf.sprintf "%s(%.0f%%)" (str "name" m) (100.0 *. Json.to_float_exn (Json.member "bound" m))))
    metrics;
  print_newline ();
  let regressed = ref false in
  List.iter
    (fun wl ->
      let workload = str "name" wl in
      Printf.printf "%-10s" workload;
      List.iter
        (fun m ->
          let name = str "name" m in
          let a = values ra ~workload name and b = values rb ~workload name in
          let delta, v =
            judge
              ~bound:(Json.to_float_exn (Json.member "bound" m))
              ~lower_better:(str "better" m = "lower") a b
          in
          if v = Regressed then regressed := true;
          Printf.printf " %22s" (Printf.sprintf "%+.1f%% %s" (100.0 *. delta) (verdict_name v)))
        metrics;
      print_newline ())
    (Json.to_list (Json.member "workloads" bench));
  exit (if !regressed then 1 else 0)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let json_out = ref None and trace_out = ref None and compare = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  one of migrate, spin, churn, locate");
      ("--seed", Arg.Set_int seed, "S  input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "N  host seconds to measure (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the traced per-layer run (1)");
      ("--json", Arg.String (fun f -> json_out := Some f), "FILE  also append the run to FILE");
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE  span file of a traced run (default bench/perf/out/trace-W-S.json)" );
      ( "--compare",
        Arg.Tuple
          (let a = ref "" in
           [ Arg.Set_string a; Arg.String (fun b -> compare := Some (!a, b)) ]),
        "A B  compare two result files against the bounds in BENCHMARK.json" );
    ]
  in
  Arg.parse spec (fun a -> die ("unexpected argument " ^ a)) "perf.exe --workload W --seed S --seconds N --trace 0|1";
  match !compare with
  | Some (a, b) -> compare_files a b
  | None ->
    let w =
      match Jobs.find !workload with
      | Some w -> w
      | None -> die (Printf.sprintf "unknown workload %S" !workload)
    in
    if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
    if !seconds < 1 then die "--seconds must be positive";
    measure
      {
        workload = w;
        seed = !seed;
        seconds = float !seconds;
        trace = !trace = 1;
        json_out = !json_out;
        trace_out = !trace_out;
      }
