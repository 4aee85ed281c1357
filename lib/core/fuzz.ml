module P = Fault.Plan
module R = Fault.Rng

type verdict =
  | Completed of string
  | Unavailable of string
  | Stuck of string
  | Invariant of Fault.Invariants.violation list

type outcome = {
  f_seed : int;
  f_plan : P.t;
  f_verdict : verdict;
  f_ok : bool;
  f_events : int;
  f_virtual_us : float;
  f_moves : int;
  f_evictions : int;
  f_faults : int;
  f_retransmits : int;
  f_dups : int;
  f_group_moves : int;
  f_trace : string list;
}

(* ----------------------------------------------------------------------- *)
(* workloads

   Two program shapes, both touring the whole cluster so every fault in
   the plan has protocol traffic to hit:

   - [ping]: the Table 1 agent bouncing between node 0 and a peer —
     move / move-req / reply traffic only;
   - [mixed]: an agent touring the ring while invoking an Adder left
     behind on node 0 — every add after the first hop is a remote
     invocation through a proxy, so invoke / reply / forwarding /
     search traffic joins the moves. *)

let mixed_src =
  {|
object Adder
  operation add[a : int, b : int] -> [r : int]
    r <- a + b
  end add
end Adder

object Agent
  operation work[n : int, peers : int] -> [r : int]
    var a : Adder <- new Adder
    var i : int <- 0
    var dest : int <- 0
    var sum : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      dest <- i - (i / peers) * peers
      move self to dest
      sum <- a.add[sum, i]
    end loop
    r <- sum
  end work
end Agent
|}

(* compile each workload once for the whole architecture pool and share
   the program across every cluster in the sweep; per-seed compilation
   would dominate a 200-seed run *)
let arch_pool = [ Isa.Arch.sparc; Isa.Arch.sun3; Isa.Arch.hp9000_433; Isa.Arch.vax ]

let compiled : (string, Emc.Compile.program) Hashtbl.t = Hashtbl.create 4

let program_for ~name source =
  match Hashtbl.find_opt compiled name with
  | Some p -> p
  | None ->
    let p = Emc.Compile.compile_exn ~name ~archs:arch_pool source in
    Hashtbl.replace compiled name p;
    p

(* ----------------------------------------------------------------------- *)
(* seed-derived scenarios *)

let pick rng choices = List.nth choices (R.int rng ~bound:(List.length choices))

let plan_of_seed ~rng ~n_nodes =
  let drop = pick rng [ 0.0; 0.05; 0.1; 0.3 ] in
  let dup = pick rng [ 0.0; 0.05; 0.2 ] in
  let delay_p = pick rng [ 0.0; 0.1; 0.3 ] in
  let delay_us = float_of_int (200 * (1 lsl R.int rng ~bound:5)) in
  let partitions =
    if R.bool rng ~p:0.3 && n_nodes >= 2 then begin
      (* cut the node range in two for a window *)
      let cut = 1 + R.int rng ~bound:(n_nodes - 1) in
      let from_us = float_of_int (500 + R.int rng ~bound:4500) in
      let len = float_of_int (1_000 + R.int rng ~bound:19_000) in
      [
        {
          P.pt_a = List.init cut Fun.id;
          pt_b = List.init (n_nodes - cut) (fun i -> cut + i);
          pt_from_us = from_us;
          pt_until_us = from_us +. len;
        };
      ]
    end
    else []
  in
  let chaos =
    if R.bool rng ~p:0.25 then begin
      let node = R.int rng ~bound:n_nodes in
      let crash_at = float_of_int (1_000 + R.int rng ~bound:19_000) in
      let restart =
        if R.bool rng ~p:0.6 then
          Some (crash_at +. float_of_int (2_000 + R.int rng ~bound:18_000))
        else None
      in
      [ { P.ch_node = node; ch_crash_at_us = crash_at; ch_restart_at_us = restart } ]
    end
    else []
  in
  P.make ~drop ~dup ~delay_p ~delay_us ~partitions ~chaos ()

type scenario = {
  sc_n_nodes : int;
  sc_prog : Emc.Compile.program;
  sc_class : string;
  sc_op : string;
  sc_args : Ert.Value.t list;
  sc_plan : P.t;
}

let scenario_of_seed seed =
  let rng = R.create ~seed in
  let n_nodes = 2 + R.int rng ~bound:3 in
  let workload = R.int rng ~bound:2 in
  let prog, cls, op, args =
    if workload = 0 then begin
      let n_vars = 1 + R.int rng ~bound:8 in
      let iters = 1 + R.int rng ~bound:4 in
      let name = Printf.sprintf "fuzz-ping-%d" n_vars in
      ( program_for ~name (Workloads.table1_src_sized ~n_vars),
        "Agent", "trip",
        [
          Ert.Value.Vint (Int32.of_int (1 + R.int rng ~bound:(n_nodes - 1)));
          Ert.Value.Vint (Int32.of_int iters);
        ] )
    end
    else begin
      let hops = 4 + R.int rng ~bound:7 in
      ( program_for ~name:"fuzz-mixed" mixed_src,
        "Agent", "work",
        [ Ert.Value.Vint (Int32.of_int hops);
          Ert.Value.Vint (Int32.of_int n_nodes) ] )
    end
  in
  let plan = P.with_seed (plan_of_seed ~rng ~n_nodes) seed in
  { sc_n_nodes = n_nodes; sc_prog = prog; sc_class = cls; sc_op = op;
    sc_args = args; sc_plan = plan }

(* ----------------------------------------------------------------------- *)
(* the invariant-checked driver *)

let value_string = function
  | None -> "(no value)"
  | Some v -> Format.asprintf "%a" Ert.Value.pp v

let run_seed ?plan ?drop ?(evict = false) ?(groups = false) ?(gc = false)
    ?(check_every = 1) ?(max_events = 400_000) ?(trace_lines = 120) ~seed () =
  let sc = scenario_of_seed seed in
  let plan = match plan with Some p -> P.with_seed p seed | None -> sc.sc_plan in
  let plan = match drop with Some d -> { plan with P.pl_drop = d } | None -> plan in
  let archs = List.init sc.sc_n_nodes (fun i -> List.nth arch_pool (i mod 4)) in
  let location = if groups then Cluster.Loc_directory else Cluster.Loc_off in
  (* gc mode: incremental collection with a threshold small enough that
     cycles are open nearly continuously, so the write barrier, migration
     send-off greying and crash-mid-cycle discard all race the fault
     plan.  The collector is local-roots-only (no distributed GC), so the
     mixed workload's Adder — referenced only by the departed agent's
     remote frame — is legitimately swept once its holder leaves; the
     protocol then reports the loss cleanly ("cannot be located") and the
     verdict stays ok.  The stop-the-world tier at the same threshold
     produces the identical verdict. *)
  let gc_mode = if gc then Cluster.Gc_incremental else Cluster.Gc_stw in
  let gc_threshold = if gc then Some (8 * 1024) else None in
  let cl =
    Cluster.create ~faults:plan ~location ~gc_mode ?gc_threshold
      ~gc_budget:64 ~archs ()
  in
  (* forced-eviction mode: the hot-spot balancer fires against the
     fault plan, so eviction captures race message loss, partitions and
     crash windows — same determinism obligations as any other event.
     Threshold 2 is the liveness floor (see {!Workloads.hot_spot_balancer});
     the extra peer threads spawned below create the depth imbalance
     that makes the balancer fire at all. *)
  if evict then
    Cluster.set_balancer cl ~every_us:400.0
      (Workloads.hot_spot_balancer ~threshold:2 cl);
  let trace = Queue.create () in
  Cluster.subscribe_events cl (fun ev ->
      Queue.push (Events.to_string ev) trace;
      if Queue.length trace > trace_lines then ignore (Queue.pop trace));
  Cluster.load_program cl sc.sc_prog;
  let target = Cluster.create_object cl ~node:0 ~class_name:sc.sc_class in
  let tid =
    Cluster.spawn cl ~node:0 ~target ~op:sc.sc_op ~args:sc.sc_args
  in
  (* pile two more copies of the workload onto node 0: the home queue
     starts three deep against empty peers, so forced evictions fire
     from the first balancing point while the root thread races the
     fault plan.  Only the root thread's outcome is adjudicated. *)
  if evict then
    for _ = 1 to 2 do
      let peer = Cluster.create_object cl ~node:0 ~class_name:sc.sc_class in
      ignore
        (Cluster.spawn cl ~node:0 ~target:peer ~op:sc.sc_op ~args:sc.sc_args
          : Ert.Thread.tid)
    done;
  (* group-migration mode: a flock of idle objects tours the ring as one
     batched transfer per balancing point, racing the fault plan with
     M_group_move and directory publish/lookup traffic while the root
     thread's own invocations exercise the chain-collapse path.  When a
     crash swallows the flock the rotation degrades to a no-op; the
     adjudicated thread is unaffected.  The tour is bounded — like every
     other fuzz workload — because an open-ended rotation offers load
     faster than a fault-delayed node can absorb it, and the resulting
     (honest) receive livelock starves the adjudicated thread forever. *)
  if groups then begin
    let flock =
      List.init 3 (fun _ ->
          Cluster.create_object cl ~node:0 ~class_name:sc.sc_class)
    in
    let home = ref 0 in
    let remaining = ref 40 in
    let rotate () =
      if !remaining > 0 && not (Cluster.is_crashed cl !home) then begin
        decr remaining;
        let dest = (!home + 1) mod sc.sc_n_nodes in
        Cluster.group_move cl ~node:!home ~dest flock;
        home := dest
      end
    in
    if evict then
      (* compose with the hot-spot balancer at its period *)
      Cluster.set_balancer cl ~every_us:400.0
        (let hot = Workloads.hot_spot_balancer ~threshold:2 cl in
         fun () ->
           hot ();
           rotate ())
    else Cluster.set_balancer cl ~every_us:700.0 rotate
  end;
  let rec drive budget since_check =
    match Cluster.result cl tid with
    | Some r -> Completed (value_string r)
    | None -> (
      match Cluster.thread_failure cl tid with
      | Some reason -> Unavailable reason
      | None ->
        if budget <= 0 then Stuck "event budget exhausted (livelock?)"
        else if not (Cluster.step_once cl) then
          Stuck "cluster quiescent with the thread neither done nor reported lost"
        else if since_check + 1 >= check_every then begin
          match Cluster.check_invariants cl with
          | [] -> drive (budget - 1) 0
          | vs -> Invariant vs
        end
        else drive (budget - 1) (since_check + 1))
  in
  let verdict = drive max_events 0 in
  let ok = match verdict with Completed _ | Unavailable _ -> true | _ -> false in
  {
    f_seed = seed;
    f_plan = plan;
    f_verdict = verdict;
    f_ok = ok;
    f_events = Cluster.events_processed cl;
    f_virtual_us = Cluster.global_time_us cl;
    f_moves = Cluster.total_counter cl (fun c -> c.Events.c_moves_in);
    f_evictions =
      (let acc = ref 0 in
       for i = 0 to sc.sc_n_nodes - 1 do
         acc := !acc + Ert.Kernel.evictions (Cluster.kernel cl i)
       done;
       !acc);
    f_faults = Cluster.total_counter cl (fun c -> c.Events.c_faults);
    f_retransmits = Cluster.total_counter cl (fun c -> c.Events.c_retransmits);
    f_dups = Cluster.total_counter cl (fun c -> c.Events.c_dups_suppressed);
    f_group_moves = Cluster.total_counter cl (fun c -> c.Events.c_group_moves);
    f_trace = List.of_seq (Queue.to_seq trace);
  }

(* ----------------------------------------------------------------------- *)
(* greedy plan shrinking: drop one component at a time, keep the removal
   whenever the seed still fails, until no single removal preserves the
   failure.  The forced loss goes into the starting plan once; the
   candidates then run as they are, so removing the loss is judged like
   any other component. *)

let shrink_candidates (p : P.t) =
  let drop_nth n l = List.filteri (fun i _ -> i <> n) l in
  List.concat
    [
      (if p.P.pl_drop > 0.0 then [ { p with P.pl_drop = 0.0 } ] else []);
      (if p.P.pl_dup > 0.0 then [ { p with P.pl_dup = 0.0 } ] else []);
      (if p.P.pl_delay_p > 0.0 then [ { p with P.pl_delay_p = 0.0 } ] else []);
      List.mapi
        (fun i _ -> { p with P.pl_partitions = drop_nth i p.P.pl_partitions })
        p.P.pl_partitions;
      List.mapi
        (fun i _ -> { p with P.pl_chaos = drop_nth i p.P.pl_chaos })
        p.P.pl_chaos;
    ]

let shrink ?drop ?evict ?groups ?gc ?check_every ?max_events ~seed plan =
  let still_fails p =
    not (run_seed ~plan:p ?evict ?groups ?gc ?check_every ?max_events ~seed ()).f_ok
  in
  let rec go p =
    match List.find_opt still_fails (shrink_candidates p) with
    | Some smaller -> go smaller
    | None -> p
  in
  go (match drop with Some d -> { plan with P.pl_drop = d } | None -> plan)

let sweep ?drop ?evict ?groups ?gc ?check_every ?max_events
    ?(on_outcome = ignore) ~seeds () =
  let rec go = function
    | [] -> None
    | seed :: rest ->
      let o = run_seed ?drop ?evict ?groups ?gc ?check_every ?max_events ~seed () in
      on_outcome o;
      if o.f_ok then go rest else Some o
  in
  go seeds
