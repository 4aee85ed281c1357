(* emfuzz: deterministic simulation testing of the mobility protocol.

   Sweeps seeds over randomized workloads and fault plans (message loss,
   duplication, delay, partitions, crash/restart windows), checking the
   cluster invariants between events.  A failing seed is printed with
   its plan and trace tail, then greedily shrunk to a minimal
   still-failing plan, and a [reproduce:] line runs exactly that plan. *)

open Cmdliner

let pp_outcome ?(verbose = false) ppf (o : Core.Fuzz.outcome) =
  let status, detail =
    match o.Core.Fuzz.f_verdict with
    | Core.Fuzz.Completed v -> ("ok", Printf.sprintf "completed: %s" v)
    | Core.Fuzz.Unavailable r -> ("ok", Printf.sprintf "unavailable: %s" r)
    | Core.Fuzz.Stuck r -> ("FAIL", Printf.sprintf "stuck: %s" r)
    | Core.Fuzz.Invariant vs ->
      ( "FAIL",
        Printf.sprintf "invariant violated: %s"
          (String.concat "; "
             (List.map
                (fun v -> Format.asprintf "%a" Fault.Invariants.pp_violation v)
                vs)) )
  in
  Format.fprintf ppf "seed %6d  %-4s %s" o.Core.Fuzz.f_seed status detail;
  if verbose then
    Format.fprintf ppf
      "  [%d events, %.0fus, %d moves, %d evictions, %d faults, %d rexmit, \
       %d dups]"
      o.Core.Fuzz.f_events o.Core.Fuzz.f_virtual_us o.Core.Fuzz.f_moves
      o.Core.Fuzz.f_evictions o.Core.Fuzz.f_faults o.Core.Fuzz.f_retransmits
      o.Core.Fuzz.f_dups;
  if verbose && o.Core.Fuzz.f_group_moves > 0 then
    Format.fprintf ppf " [%d group moves]" o.Core.Fuzz.f_group_moves

let report_failure ~drop ~evict ~groups ~gc ~check_every ~max_events
    ~do_shrink (o : Core.Fuzz.outcome) =
  Format.printf "@.%a@." (pp_outcome ~verbose:true) o;
  Format.printf "plan: %s@." (Fault.Plan.to_string o.Core.Fuzz.f_plan);
  if o.Core.Fuzz.f_trace <> [] then begin
    Format.printf "--- trace tail ---@.";
    List.iter print_endline o.Core.Fuzz.f_trace;
    Format.printf "--- end trace ---@."
  end;
  let plan =
    if do_shrink then begin
      Format.printf "shrinking...@.";
      let minimal =
        Core.Fuzz.shrink ?drop ~evict ~groups ~gc ~check_every ~max_events
          ~seed:o.Core.Fuzz.f_seed o.Core.Fuzz.f_plan
      in
      Format.printf "minimal failing plan: %s@." (Fault.Plan.to_string minimal);
      minimal
    end
    else o.Core.Fuzz.f_plan
  in
  Format.printf
    "reproduce: emfuzz --seed %d --faults '%s'%s%s%s --check-every %d \
     --max-events %d@."
    o.Core.Fuzz.f_seed (Fault.Plan.to_string plan)
    (if evict then " --evict" else "")
    (if groups then " --groups" else "")
    (if gc then " --gc" else "")
    check_every max_events

let bad_input fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "emfuzz: %s\n" m;
      exit 2)
    fmt

let at_least_one flag n = if n < 1 then bad_input "%s must be at least 1, got %d" flag n

let run seeds start one_seed faults drop evict groups gc check_every
    max_events no_shrink verbose =
  at_least_one "--seeds" seeds;
  at_least_one "--check-every" check_every;
  at_least_one "--max-events" max_events;
  Option.iter
    (fun p ->
      match Fault.Plan.check_probability "--drop" p with
      | Ok _ -> ()
      | Error e -> bad_input "%s" e)
    drop;
  let plan =
    match faults with
    | None -> None
    | Some spec -> (
      match Fault.Plan.of_string spec with
      | Ok p -> Some p
      | Error e -> bad_input "bad --faults spec: %s" e)
  in
  let do_shrink = not no_shrink in
  match one_seed with
  | Some seed ->
    let o =
      Core.Fuzz.run_seed ?plan ?drop ~evict ~groups ~gc ~check_every
        ~max_events ~seed ()
    in
    if o.Core.Fuzz.f_ok then begin
      Format.printf "%a@." (pp_outcome ~verbose:true) o;
      Format.printf "plan: %s@." (Fault.Plan.to_string o.Core.Fuzz.f_plan);
      if verbose then List.iter print_endline o.Core.Fuzz.f_trace;
      0
    end
    else begin
      report_failure ~drop ~evict ~groups ~gc ~check_every ~max_events
        ~do_shrink o;
      1
    end
  | None ->
    let t0 = Unix.gettimeofday () in
    let completed = ref 0 and unavailable = ref 0 in
    let faults_n = ref 0 and rexmit = ref 0 and dups = ref 0 in
    let evictions = ref 0 and group_moves = ref 0 in
    let ran = ref 0 in
    let on_outcome (o : Core.Fuzz.outcome) =
      incr ran;
      (match o.Core.Fuzz.f_verdict with
      | Core.Fuzz.Completed _ -> incr completed
      | Core.Fuzz.Unavailable _ -> incr unavailable
      | _ -> ());
      faults_n := !faults_n + o.Core.Fuzz.f_faults;
      rexmit := !rexmit + o.Core.Fuzz.f_retransmits;
      dups := !dups + o.Core.Fuzz.f_dups;
      evictions := !evictions + o.Core.Fuzz.f_evictions;
      group_moves := !group_moves + o.Core.Fuzz.f_group_moves;
      if verbose then Format.printf "%a@." (pp_outcome ~verbose:true) o
    in
    let seed_list = List.init seeds (fun i -> start + i) in
    (match
       Core.Fuzz.sweep ?drop ~evict ~groups ~gc ~check_every ~max_events
         ~on_outcome ~seeds:seed_list ()
     with
    | Some bad ->
      report_failure ~drop ~evict ~groups ~gc ~check_every ~max_events
        ~do_shrink bad;
      1
    | None ->
      Format.printf
        "%d seeds: %d completed, %d unavailable, 0 violations  (%d faults \
         injected, %d retransmits, %d dups suppressed%s)  [%.1fs]@."
        !ran !completed !unavailable !faults_n !rexmit !dups
        ((if evict then Printf.sprintf ", %d evictions" !evictions else "")
        ^ (if groups then Printf.sprintf ", %d group moves" !group_moves else ""))
        (Unix.gettimeofday () -. t0);
      0)

let seeds_t =
  Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")

let start_t =
  Arg.(value & opt int 1 & info [ "start" ] ~docv:"S" ~doc:"First seed of the sweep.")

let seed_t =
  Arg.(value & opt (some int) None
       & info [ "seed" ] ~docv:"SEED" ~doc:"Run exactly one seed, verbosely.")

let faults_t =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Override the seed-derived fault plan with this plan spec \
                 (same syntax as emrun --faults).")

let drop_t =
  Arg.(value & opt (some float) None
       & info [ "drop" ] ~docv:"P"
           ~doc:"Force the per-message loss probability (e.g. 0.3).")

let evict_t =
  Arg.(value & flag
       & info [ "evict" ]
           ~doc:"Install the hot-spot balancer on every scenario, so \
                 forced-eviction captures race the fault plan.")

let groups_t =
  Arg.(value & flag
       & info [ "groups" ]
           ~doc:"Enable the location directory on every scenario and \
                 rotate a flock of objects around the ring as batched \
                 group migrations, racing the fault plan.")

let gc_t =
  Arg.(value & flag
       & info [ "gc" ]
           ~doc:"Arm the incremental collector on every scenario (small                  threshold and budget), so open mark cycles, the write                  barrier and crash-mid-cycle discard race the fault plan.")

let check_every_t =
  Arg.(value & opt int 1
       & info [ "check-every" ] ~docv:"N"
           ~doc:"Run the invariant checkers every N events.")

let max_events_t =
  Arg.(value & opt int 400_000
       & info [ "max-events" ] ~docv:"N" ~doc:"Per-seed event budget.")

let no_shrink_t =
  Arg.(value & flag
       & info [ "no-shrink" ] ~doc:"Skip shrinking when a seed fails.")

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every seed's outcome.")

let cmd =
  let doc = "sweep fault-injection seeds against the mobility protocol" in
  Cmd.v
    (Cmd.info "emfuzz" ~doc)
    Term.(
      const run $ seeds_t $ start_t $ seed_t $ faults_t $ drop_t $ evict_t
      $ groups_t $ gc_t $ check_every_t $ max_events_t $ no_shrink_t
      $ verbose_t)

let () = exit (Cmd.eval' cmd)
