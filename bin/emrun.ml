(* emrun: run an Emerald-like program on a simulated cluster of
   heterogeneous workstations.

     emrun FILE [--nodes IDS] [-O LEVELS] [--class NAME] [--op NAME]
               [--args LIST] [--original] [--codec TIER]
               [--location MODE] [--gc MODE] [--gc-threshold BYTES]
               [--trace] [--stats] [--profile]
               [--trace-out FILE] [--evict-hot N] [--seed N]
               [--faults SPEC] [--check-invariants] *)

open Cmdliner

let run file nodes opt cls op args_s original codec location gc_mode_s
    gc_threshold trace stats profile trace_out evict_hot seed faults
    check_invariants =
  let source = In_channel.with_open_text file In_channel.input_all in
  let known = String.concat ", " (List.map (fun a -> a.Isa.Arch.id) Isa.Arch.all) in
  let archs =
    String.split_on_char ',' nodes
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun id ->
           try Isa.Arch.by_id id
           with Not_found ->
             Printf.eprintf "emrun: unknown architecture %s (have: %s)\n" id known;
             exit 2)
  in
  if archs = [] then begin
    Printf.eprintf "emrun: --nodes names no architecture (have: %s)\n" known;
    exit 2
  end;
  let node_levels =
    let parse s =
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 0 && n <= 2 -> Emc.Opt.of_int n
      | _ ->
        Printf.eprintf "emrun: bad optimization level %s (have: 0, 1, 2)\n" s;
        exit 2
    in
    match List.map parse (String.split_on_char ',' opt) with
    | [ l ] -> List.map (fun _ -> l) archs
    | ls when List.length ls = List.length archs -> ls
    | ls ->
      Printf.eprintf "emrun: -O wants one level or one per node (%d nodes, %d levels)\n"
        (List.length archs) (List.length ls);
      exit 2
  in
  let protocol = if original then Core.Cluster.Original else Core.Cluster.Enhanced in
  let plan =
    match faults with
    | None -> Fault.Plan.empty
    | Some spec -> (
      let in_cluster p =
        Result.map (fun () -> p) (Fault.Plan.check_nodes p ~n_nodes:(List.length archs))
      in
      match Result.bind (Fault.Plan.of_string spec) in_cluster with
      | Ok p -> p
      | Error e ->
        Printf.eprintf "emrun: bad --faults spec: %s\n" e;
        exit 2)
  in
  let plan = match seed with Some s -> Fault.Plan.with_seed plan s | None -> plan in
  let wire_impl =
    match codec with
    | None -> None
    | Some s -> (
      match Enet.Wire.impl_of_string s with
      | Some impl -> Some impl
      | None ->
        Printf.eprintf "emrun: unknown codec %s (have: naive, plan, blit)\n" s;
        exit 2)
  in
  let location =
    match location with
    | None -> Core.Cluster.Loc_off
    | Some "off" -> Core.Cluster.Loc_off
    | Some "directory" -> Core.Cluster.Loc_directory
    | Some s ->
      Printf.eprintf "emrun: unknown location mode %s (have: off, directory)\n" s;
      exit 2
  in
  let gc_mode =
    match gc_mode_s with
    | None | Some "stw" -> Core.Cluster.Gc_stw
    | Some "incremental" -> Core.Cluster.Gc_incremental
    | Some s ->
      Printf.eprintf "emrun: unknown gc mode %s (have: stw, incremental)\n" s;
      exit 2
  in
  (match evict_hot with
  | Some n when n < 2 ->
    Printf.eprintf
      "emrun: --evict-hot %d is below 2 (one eviction moves the depth difference by two)\n" n;
    exit 2
  | _ -> ());
  (* the trace file is opened before anything runs, so an unwritable
     path is refused up front *)
  let trace_file =
    Option.map
      (fun path ->
        try (path, open_out_bin path)
        with Sys_error e ->
          Printf.eprintf "emrun: cannot write --trace-out: %s\n" e;
          exit 2)
      trace_out
  in
  let cl =
    Core.Cluster.create ~protocol ?wire_impl ?gc_threshold ~gc_mode
      ~faults:plan ~location ~archs ()
  in
  (* max-pause tracking for --stats: each Ev_gc_phase carries the virtual
     time its increment charged; stop-the-world pauses are not phased, so
     the line only appears under --gc incremental *)
  let gc_max_pause_us = ref 0.0 in
  Core.Events.subscribe (Core.Cluster.bus cl) (function
    | Core.Events.Ev_gc_phase { pause_us; _ } ->
      if pause_us > !gc_max_pause_us then gc_max_pause_us := pause_us
    | _ -> ());
  List.iteri (fun i l -> Core.Cluster.set_opt_level cl ~node:i l) node_levels;
  (match evict_hot with
  | Some threshold ->
    Core.Cluster.set_balancer cl ~every_us:400.0
      (Core.Workloads.hot_spot_balancer ~threshold cl)
  | None -> ());
  if trace then Core.Cluster.set_trace cl prerr_endline;
  (* span tracing drives both --profile and --trace-out; the profile
     keeps raw spans only when a trace file will be written *)
  let prof =
    if profile || trace_out <> None then begin
      let p = Obs.Profile.create ~keep_spans:(trace_out <> None) () in
      Core.Cluster.attach_profile cl p;
      Some p
    end
    else None
  in
  (* with every node at -O0 the instance list is omitted entirely, so
     the compiled program — and everything downstream — is byte-for-byte
     the historical single-instance one *)
  let levels =
    if List.for_all (Emc.Opt.equal Emc.Opt.O0) node_levels then None
    else Some node_levels
  in
  let prog =
    match
      Emc.Compile.compile ?levels
        ~name:(Filename.remove_extension (Filename.basename file))
        ~archs:(List.sort_uniq (fun a b -> String.compare a.Isa.Arch.id b.Isa.Arch.id) archs)
        source
    with
    | Error errs ->
      List.iter
        (fun e -> Printf.eprintf "%s: %s\n" file (Format.asprintf "%a" Emc.Diag.pp_error e))
        errs;
      exit 1
    | Ok prog ->
      Core.Cluster.load_program cl prog;
      prog
  in
  (* a --class, --op or --args the program cannot take is an error of
     the input, like an unknown --codec *)
  let bad_input msg =
    Printf.eprintf "emrun: %s\n" msg;
    exit 2
  in
  (* a fault of the program itself (a nil dereference, or a move the
     original protocol cannot make) is reported like a compile error *)
  let program_fault msg =
    Printf.eprintf "emrun: %s\n" msg;
    exit 1
  in
  if Emc.Compile.find_class prog cls = None then
    bad_input
      (Printf.sprintf "unknown class %s (have: %s)" cls
         (String.concat ", "
            (Array.to_list
               (Array.map (fun cc -> cc.Emc.Compile.cc_name) prog.Emc.Compile.p_classes))));
  let target =
    try Core.Cluster.create_object cl ~node:0 ~class_name:cls
    with Ert.Kernel.Runtime_error msg -> program_fault ("runtime error: " ^ msg)
  in
  let args =
    if args_s = "" then []
    else
      String.split_on_char ',' args_s
      |> List.map (fun s ->
             match Int32.of_string_opt (String.trim s) with
             | Some v -> Ert.Value.Vint v
             | None -> bad_input (Printf.sprintf "bad --args value %S (want integers)" s))
  in
  let tid =
    try Core.Cluster.spawn cl ~node:0 ~target ~op ~args
    with Ert.Kernel.Runtime_error msg -> bad_input msg
  in
  let finish () =
    for i = 0 to Core.Cluster.n_nodes cl - 1 do
      let out = Core.Cluster.output cl ~node:i in
      if out <> "" then Printf.printf "-- node %d output --\n%s" i out
    done;
    Printf.printf "virtual time: %.2f ms\n" (Core.Cluster.global_time_us cl /. 1000.0);
    if stats then begin
      Printf.printf "network: %d messages, %d bytes\n"
        (Enet.Netsim.messages_sent (Core.Cluster.network cl))
        (Enet.Netsim.bytes_sent (Core.Cluster.network cl));
      for i = 0 to Core.Cluster.n_nodes cl - 1 do
        let k = Core.Cluster.kernel cl i in
        let c = Core.Cluster.node_counters cl i in
        let calls = c.Core.Events.c_conv_calls and bytes = c.Core.Events.c_conv_bytes in
        Printf.printf
          "node %d (%-6s): %8d insns, %5d syscalls, %d conversion calls over %d \
           bytes (%.2f calls/byte), code fetches %d\n"
          i
          (Isa.Arch.by_id (Ert.Kernel.arch k).Isa.Arch.id).Isa.Arch.id
          (Ert.Kernel.insns_executed k)
          (Ert.Kernel.syscalls_handled k)
          calls bytes
          (if bytes = 0 then 0.0 else float_of_int calls /. float_of_int bytes)
          (Mobility.Code_repository.fetches_by_node (Core.Cluster.repository cl) i)
      done;
      for i = 0 to Core.Cluster.n_nodes cl - 1 do
        let c = Core.Cluster.node_counters cl i in
        let open Core.Events in
        Printf.printf
          "node %d bus: %8d steps, %3d sent, %3d delivered, %2d moves out, %2d in, %4d conv calls\n"
          i c.c_steps c.c_sent c.c_delivered c.c_moves_out c.c_moves_in
          c.c_conv_calls
      done;
      for i = 0 to Core.Cluster.n_nodes cl - 1 do
        let k = Core.Cluster.kernel cl i in
        Printf.printf
          "node %d queue: depth %d (peak %d), %d evictions fired, %d armed\n" i
          (Ert.Kernel.ready_depth k)
          (Ert.Kernel.peak_ready_depth k)
          (Ert.Kernel.evictions k)
          (Ert.Kernel.evictions_armed k)
      done;
      let gc_freed =
        Core.Cluster.total_counter cl (fun c -> c.Core.Events.c_gc_bytes_freed)
      in
      let collections =
        Core.Cluster.total_counter cl (fun c -> c.Core.Events.c_collections)
      in
      (match Core.Cluster.gc_mode cl with
      | Core.Cluster.Gc_stw ->
        if collections > 0 then
          Printf.printf "gc: %d stop-the-world collections, %d bytes freed\n"
            collections gc_freed
      | Core.Cluster.Gc_incremental ->
        let incs =
          Core.Cluster.total_counter cl (fun c ->
              c.Core.Events.c_gc_increments)
        in
        Printf.printf
          "gc: %d incremental collections (%d increments), %d bytes freed, \
           max increment pause %.1f us\n"
          collections incs gc_freed !gc_max_pause_us);
      let open Core.Events in
      let blit_skips = Core.Cluster.total_counter cl (fun c -> c.c_blit_skips) in
      let blit_falls =
        Core.Cluster.total_counter cl (fun c -> c.c_blit_fallbacks)
      in
      if blit_skips > 0 || blit_falls > 0 then
        Printf.printf
          "fastpath: %d blit moves skipped translation, %d fell back to \
           per-datum conversion (skip ratio %.2f)\n"
          blit_skips blit_falls
          (float_of_int blit_skips /. float_of_int (blit_skips + blit_falls));
      let d_blocks = ref 0 and d_insns = ref 0 and d_fused = ref 0 in
      let d_slices = ref 0 in
      for i = 0 to Core.Cluster.n_nodes cl - 1 do
        let s = Ert.Kernel.dispatch_stats (Core.Cluster.kernel cl i) in
        d_blocks := !d_blocks + s.Isa.Dispatch.st_blocks;
        d_insns := !d_insns + s.Isa.Dispatch.st_insns;
        d_fused := !d_fused + s.Isa.Dispatch.st_fused;
        d_slices := !d_slices + s.Isa.Dispatch.st_slices
      done;
      if !d_slices > 0 then
        Printf.printf
          "dispatch: %d blocks translated (%d insns, %d fused pairs), %d \
           run slices\n"
          !d_blocks !d_insns !d_fused !d_slices;
      (if levels <> None then begin
         Printf.printf "optimizer: node levels [%s]\n"
           (String.concat ","
              (List.map
                 (fun l -> string_of_int (Emc.Opt.to_int l))
                 node_levels));
         (* per-(arch, level) edit totals over every class of the program *)
         let tallies = Hashtbl.create 8 in
         Array.iter
           (fun cc ->
             List.iter
               (fun (key, (art : Emc.Compile.arch_artifact)) ->
                 let n = List.length art.Emc.Compile.aa_edits in
                 Hashtbl.replace tallies key
                   (n + Option.value (Hashtbl.find_opt tallies key) ~default:0))
               cc.Emc.Compile.cc_arts)
           prog.Emc.Compile.p_classes;
         Hashtbl.fold (fun k v acc -> (k, v) :: acc) tallies []
         |> List.sort compare
         |> List.iter (fun ((arch_id, l), n) ->
                Printf.printf "optimizer: %-6s -%s %4d edit(s)\n" arch_id
                  (Emc.Opt.to_string l) n)
       end);
      let bridged =
        Core.Cluster.total_counter cl (fun c -> c.Core.Events.c_bridged)
      in
      let bh, bm = Core.Cluster.bridge_stats cl in
      if bridged > 0 || bh + bm > 0 then
        Printf.printf
          "bridge: %d threads resumed through fragments; fragment cache %d \
           hits / %d misses\n"
          bridged bh bm;
      (let e = Core.Cluster.engine cl in
       Printf.printf "engine: %d pushes, %d pops (%d stale), %d pending\n"
         (Core.Engine.pushes e) (Core.Engine.pops e) (Core.Engine.stale_pops e)
         (Core.Engine.pending e));
      if Core.Cluster.location cl <> Core.Cluster.Loc_off then begin
        let open Core.Events in
        let tc f = Core.Cluster.total_counter cl f in
        let locates = tc (fun c -> c.c_locates) in
        let hops = tc (fun c -> c.c_locate_hops) in
        Printf.printf
          "location: %d invokes located (%d hops, mean %.2f), %d chain \
           collapses\n"
          locates hops
          (if locates = 0 then 0.0 else float_of_int hops /. float_of_int locates)
          (tc (fun c -> c.c_collapses));
        let u, stale, hits, misses = Core.Cluster.directory_stats cl in
        if Core.Cluster.location cl = Core.Cluster.Loc_directory then
          Printf.printf
            "directory: %d updates sent, %d applied (%d stale dropped), \
             lookups %d hit / %d miss\n"
            (tc (fun c -> c.c_dir_updates))
            u stale hits misses;
        let gm = tc (fun c -> c.c_group_moves) in
        if gm > 0 then
          Printf.printf "group transfers: %d (%d objects)\n" gm
            (tc (fun c -> c.c_group_objects))
      end;
      if not (Fault.Plan.is_trivial plan) then begin
        let open Core.Events in
        let tc f = Core.Cluster.total_counter cl f in
        Printf.printf "faults: %s\n" (Fault.Plan.describe plan);
        Printf.printf
          "faults: %d injected (%d dropped, %d duplicated, %d delayed), %d \
           retransmits, %d dups suppressed, %d acks\n"
          (tc (fun c -> c.c_faults))
          (Enet.Netsim.messages_dropped (Core.Cluster.network cl))
          (Enet.Netsim.messages_duplicated (Core.Cluster.network cl))
          (Enet.Netsim.messages_delayed (Core.Cluster.network cl))
          (tc (fun c -> c.c_retransmits))
          (tc (fun c -> c.c_dups_suppressed))
          (tc (fun c -> c.c_acks))
      end
    end;
    (match prof with
    | Some p ->
      if profile then begin
        Printf.printf "migration phases (%d spans):\n" (Obs.Profile.count p);
        print_string (Obs.Profile.table p)
      end;
      (match trace_file with
      | Some (path, oc) ->
        Out_channel.output_string oc (Obs.Trace.to_json (Obs.Profile.spans p));
        close_out oc;
        Printf.eprintf "trace written to %s (%d spans)\n" path (Obs.Profile.count p)
      | None -> ())
    | None -> ())
  in
  let execute () =
    if not check_invariants then (
      try Ok (Core.Cluster.run_until_result cl tid) with
      | Core.Cluster.Thread_unavailable r -> Error ("thread unavailable: " ^ r))
    else begin
      (* step manually so the invariant oracle runs between events *)
      let rec drive budget =
        match Core.Cluster.result cl tid with
        | Some r -> Ok r
        | None -> (
          match Core.Cluster.thread_failure cl tid with
          | Some r -> Error ("thread unavailable: " ^ r)
          | None ->
            if budget <= 0 then Error "event budget exceeded"
            else if not (Core.Cluster.step_once cl) then
              Error "cluster quiescent without a result"
            else begin
              match Core.Cluster.check_invariants cl with
              | [] -> drive (budget - 1)
              | vs ->
                List.iter
                  (fun v ->
                    Format.eprintf "invariant violation: %a@."
                      Fault.Invariants.pp_violation v)
                  vs;
                finish ();
                exit 3
            end)
      in
      drive 2_000_000
    end
  in
  let result =
    try execute () with
    | Ert.Kernel.Runtime_error msg -> program_fault ("runtime error: " ^ msg)
    | Core.Cluster.Heterogeneous_move_in_original_protocol ->
      program_fault
        "the original protocol cannot move a thread between unlike architectures"
  in
  (match result with
  | Ok (Some v) -> Format.printf "result: %a@." Ert.Value.pp v
  | Ok None -> print_endline "done (no result)"
  | Error msg -> Printf.printf "%s\n" msg);
  finish ();
  if check_invariants then print_endline "invariants: ok"

let file_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Emerald source file.")

let nodes_t =
  Arg.(value & opt string "sparc,sun3,hp433,vax"
       & info [ "nodes" ] ~docv:"IDS"
           ~doc:"Comma-separated architecture ids (default: a Figure 1 network).")

let opt_t =
  Arg.(value & opt string "0"
       & info [ "O" ] ~docv:"LEVELS"
           ~doc:"Optimization level — one of $(b,0) (straight template \
                 code, the default), $(b,1) (register caching + peephole) \
                 or $(b,2) (1 plus redundant-load elimination and \
                 loop-poll elision) — applied to every node, or a \
                 comma-separated per-node list (e.g. $(b,0,2,0,2)).  Nodes \
                 at different levels run different code instances; threads \
                 migrating between them land through compiled bridge \
                 fragments when their parked bus stop was elided at the \
                 destination.")

let class_t =
  Arg.(value & opt string "Main"
       & info [ "class" ] ~docv:"NAME" ~doc:"Class to instantiate on node 0.")

let op_t =
  Arg.(value & opt string "start" & info [ "op" ] ~docv:"NAME" ~doc:"Operation to invoke.")

let args_t =
  Arg.(value & opt string ""
       & info [ "args" ] ~docv:"LIST"
           ~doc:"Comma-separated integer arguments, one per parameter of the operation.")

let original_t =
  Arg.(value & flag
       & info [ "original" ] ~doc:"Use the original homogeneous protocol.")

let codec_t =
  Arg.(value & opt (some string) None
       & info [ "codec" ] ~docv:"TIER"
           ~doc:"Wire conversion tier: $(b,naive) (charged per byte, like \
                 the prototype's routines), $(b,plan) (one conversion call \
                 per datum), or $(b,blit) (plan, plus same-layout \
                 architecture pairs get a zero-translation transfer charged \
                 one call per record, skipping capture translation and \
                 frame rebuild).")

let location_t =
  Arg.(value & opt (some string) None
       & info [ "location" ] ~docv:"MODE"
           ~doc:"Location subsystem mode: $(b,off) (default; bit-identical \
                 to builds that predate it) or $(b,directory) (forwarded \
                 invokes carry hop trails and the hosting node collapses \
                 the chain behind them; migrations publish to each \
                 object's home shard in the hash-partitioned location \
                 directory, and exhausted proxy chains ask the home \
                 before broadcasting).")

let gc_mode_t =
  Arg.(value & opt (some string) None
       & info [ "gc" ] ~docv:"MODE"
           ~doc:"Collector tier: $(b,stw) (default; one stop-the-world \
                 mark-sweep per threshold crossing, byte-identical traces \
                 to earlier builds) or $(b,incremental) (the tri-color \
                 incremental collector: the same collection as bounded \
                 increments interleaved with execution, each charged per \
                 pointer slot scanned).")

let gc_threshold_t =
  Arg.(value & opt (some int) None
       & info [ "gc-threshold" ] ~docv:"BYTES"
           ~doc:"Arm automatic collection when a node's live heap exceeds \
                 $(docv) bytes (default: collection disabled).")

let trace_t = Arg.(value & flag & info [ "trace" ] ~doc:"Print protocol events.")
let stats_t = Arg.(value & flag & info [ "stats" ] ~doc:"Print per-node statistics.")

let profile_t =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Trace migration spans and print the per-arch-pair phase \
                 table (count, p50/p90/p99/max in virtual us per phase: \
                 capture, translate, marshal, transfer, unmarshal, \
                 rebuild, relocate, plus whole moves and RPC round trips).")

let trace_out_t =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write migration spans as Chrome tracing JSON (load in \
                 about:tracing or Perfetto; timestamps are virtual \
                 microseconds).")

let evict_hot_t =
  Arg.(value & opt (some int) None
       & info [ "evict-hot" ] ~docv:"N"
           ~doc:"Install the hot-spot load balancer: every 400 virtual us, \
                 when the deepest run queue exceeds the shallowest by at \
                 least $(docv), force-evict the lowest-id runnable segment \
                 from the hot node to the cool one (trapped at its next \
                 bus stop, no cooperative polling).  $(docv) must be at \
                 least 2: one eviction moves the depth difference by two.")

let seed_t =
  Arg.(value & opt (some int) None
       & info [ "seed" ] ~docv:"N"
           ~doc:"Override the fault plan's random seed (determinism handle).")

let faults_t =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Install a fault plan, e.g. \
                 'seed=42,drop=0.3,dup=0.05,delay=0.1:2000,part=0+1|2+3@1000:50000,crash=2@3000:9000'.")

let check_invariants_t =
  Arg.(value & flag
       & info [ "check-invariants" ]
           ~doc:"Check cluster invariants between events; exit 3 on violation.")

let cmd =
  let doc = "run an Emerald-like program on a simulated heterogeneous cluster" in
  Cmd.v
    (Cmd.info "emrun" ~doc)
    Term.(
      const run $ file_t $ nodes_t $ opt_t $ class_t $ op_t $ args_t $ original_t
      $ codec_t $ location_t $ gc_mode_t $ gc_threshold_t $ trace_t
      $ stats_t $ profile_t $ trace_out_t $ evict_hot_t $ seed_t $ faults_t
      $ check_invariants_t)

let () = exit (Cmd.eval cmd)
