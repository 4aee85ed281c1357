module K = Ert.Kernel
module T = Ert.Thread
module E = Events

exception Thread_unavailable of string

type chaos_act =
  | Chaos_crash
  | Chaos_restart

type t = {
  engine : Engine.t;
  net : Enet.Netsim.t;
  bus : E.bus;
  kernels : K.t array;  (* the cluster's, read only here *)
  down : bool array;  (* likewise *)
  clocks : Sim.Clock.t array;  (* node clocks, which survive restarts *)
  tr : Transport.t;
  gc : Collect.t;
  chaos : (float * chaos_act) list array;  (* per-node schedule, sorted by time *)
  results : (T.tid, Ert.Value.t option) Hashtbl.t;
  failures : (T.tid, string) Hashtbl.t;
  outcall : src:int -> K.outcall -> unit;
  crash : int -> unit;
  restart : int -> unit;
  mutable events : int;
  (* periodic load balancing at fixed virtual times, fired between events *)
  mutable balancer : (unit -> unit) option;
  mutable balance_every : float;
  mutable balance_at : float;
}

let create ~engine ~net ~bus ~kernels ~down ~transport ~collect ~faults ~results
    ~failures ~outcall ~crash ~restart =
  let t =
    { engine; net; bus; kernels; down;
      clocks = Array.map K.clock kernels;
      tr = transport; gc = collect;
      chaos = Array.make (Array.length kernels) [];
      results; failures; outcall; crash; restart;
      events = 0;
      balancer = None; balance_every = infinity; balance_at = infinity }
  in
  Enet.Netsim.set_on_arrival net (fun ~dst ~at ->
      Engine.schedule engine ~at Engine.Deliver dst);
  (* compile the plan's crash/restart windows into per-node schedules and
     seed the engine with each node's first window *)
  List.iter
    (fun (c : Fault.Plan.chaos) ->
      let acts =
        (c.ch_crash_at_us, Chaos_crash)
        :: List.map (fun r -> (r, Chaos_restart)) (Option.to_list c.ch_restart_at_us)
      in
      let i = c.ch_node in
      t.chaos.(i) <- List.sort (fun (a, _) (b, _) -> Float.compare a b) (t.chaos.(i) @ acts))
    faults.Fault.Plan.pl_chaos;
  Array.iteri
    (fun i acts ->
      match acts with
      | (at, _) :: _ -> Engine.schedule engine ~at Engine.Chaos i
      | [] -> ())
    t.chaos;
  t

let engine t = t.engine
let events t = t.events

(* (re)queue a scheduling slice for the node, at its current virtual
   time; the engine dedups, so this is cheap to call after anything
   that might have woken a segment *)
let ensure_step t i =
  if (not t.down.(i)) && K.has_ready t.kernels.(i) then
    Engine.schedule t.engine ~at:t.clocks.(i).Sim.Clock.now Engine.Step i

(* (re)queue a wake at the node's earliest timed-wait deadline; the
   engine dedups, and the pop handler revalidates against the kernel, so
   a stale or superseded entry costs one no-op pop *)
let ensure_wake t i =
  if not t.down.(i) then
    match K.next_timeout t.kernels.(i) with
    | Some d -> Engine.schedule t.engine ~at:d Engine.Wake i
    | None -> ()

let rec run_outcalls t ~src = function
  | [] -> ()
  | oc :: rest ->
    t.outcall ~src oc;
    run_outcalls t ~src rest

(* --- the event loop.  The engine pops entries in (time, rank) order,
   and each is revalidated when popped: a node's clock may have advanced
   past its queued step, or a message queue's head may now arrive
   effectively later.  A stale entry is rescheduled at its corrected
   (always later) time and the pop executes nothing, so no event runs
   before the time it is valid at. *)

(* Harness code may mutate a kernel behind the cluster's back (tests
   drive [Mobility.Checkpoint.restore] on a kernel directly, for
   instance), so an empty heap does not yet prove quiescence: rescan
   once and reseed anything runnable.  This is the loop's only O(nodes)
   scan, and it runs once per drain, not per event. *)
let reseed t =
  Array.iteri
    (fun i k ->
      ensure_step t i;
      (* a node whose segments all sit in timed waits has no ready work,
         so only its wake keeps the simulation from quiescing early *)
      ensure_wake t i;
      match Enet.Netsim.next_arrival_at t.net ~dst:i with
      | Some a -> Engine.schedule t.engine ~at:(Float.max a (K.time_us k)) Engine.Deliver i
      | None -> ())
    t.kernels;
  not (Engine.is_empty t.engine)

let rec step_below t ~horizon =
  let e = t.engine in
  if Engine.is_empty e then reseed t && step_below t ~horizon
  else if not (Engine.before e horizon) then
    false (* a pending load-balancing point gates further execution *)
  else begin
    let r = Engine.take e in
    let i = Engine.node r in
    match Engine.kind r with
    | Engine.Timer ->
      if Transport.on_timer t.tr i then begin
        t.events <- t.events + 1;
        true
      end
      else step_below t ~horizon
    | Engine.Chaos -> (
      match t.chaos.(i) with
      | [] -> step_below t ~horizon
      | (_, act) :: rest ->
        t.chaos.(i) <- rest;
        t.events <- t.events + 1;
        (match act with
        | Chaos_crash -> t.crash i
        | Chaos_restart -> t.restart i);
        (match rest with
        | (at, _) :: _ -> Engine.schedule e ~at Engine.Chaos i
        | [] -> ());
        ensure_step t i;
        true)
    | Engine.Gc ->
      (* an in-progress incremental cycle must run to completion even if
         sweeping has already pushed the heap back under the threshold.
         The collection stands in for the node's next step, so it queues
         that step at the post-collection clock — and so does a pop that
         finds nothing due (a harness collected behind the loop's back) *)
      if t.down.(i) then step_below t ~horizon
      else if not (Collect.due t.gc i) then begin
        ensure_step t i;
        step_below t ~horizon
      end
      else begin
        Collect.collect t.gc i;
        ensure_step t i;
        true
      end
    | Engine.Step ->
      if t.down.(i) || not (K.has_ready t.kernels.(i)) then step_below t ~horizon
      else begin
        let tm = Engine.now e in
        let clock = t.clocks.(i) in
        let now = clock.Sim.Clock.now in
        if now > tm then begin
          Engine.reschedule e ~at:now Engine.Step i;
          step_below t ~horizon
        end
        else begin
          t.events <- t.events + 1;
          E.emit_step t.bus ~node:i ~time:tm;
          run_outcalls t ~src:i (K.step t.kernels.(i));
          (* the slice advanced the node clock.  A node left over the
             threshold queues its collection, which queues the follow-on
             step once it has charged its pause; a step queued here too
             would only pop stale *)
          let at = clock.Sim.Clock.now in
          if Collect.over_threshold t.gc i then Engine.schedule e ~at Engine.Gc i
          else if (not t.down.(i)) && K.has_ready t.kernels.(i) then
            Engine.schedule e ~at Engine.Step i;
          ensure_wake t i;
          true
        end
      end
    | Engine.Wake -> (
      (* revalidate against the kernel, exactly as Step does against the
         clock: the deadline may have been consumed (signalled, migrated
         away) or superseded by an earlier one since this entry was
         queued *)
      if t.down.(i) then step_below t ~horizon
      else
        let k = t.kernels.(i) in
        match K.next_timeout k with
        | None -> step_below t ~horizon
        | Some d ->
          let tm = Engine.now e in
          let eff = Float.max d t.clocks.(i).Sim.Clock.now in
          if eff > tm then begin
            Engine.reschedule e ~at:eff Engine.Wake i;
            step_below t ~horizon
          end
          else begin
            t.events <- t.events + 1;
            K.set_time_us k tm;
            ignore (K.expire_timeouts k ~now:tm : int);
            ensure_wake t i;
            ensure_step t i;
            true
          end)
    | Engine.Deliver -> (
      match Enet.Netsim.next_arrival_at t.net ~dst:i with
      | None -> step_below t ~horizon
      | Some arrival ->
        let tm = Engine.now e in
        let eff = Float.max arrival t.clocks.(i).Sim.Clock.now in
        if eff > tm then begin
          Engine.reschedule e ~at:eff Engine.Deliver i;
          step_below t ~horizon
        end
        else begin
          t.events <- t.events + 1;
          Transport.receive t.tr ~dst:i ~now:eff;
          (match Enet.Netsim.next_arrival_at t.net ~dst:i with
          | Some a ->
            Engine.schedule e ~at:(Float.max a (K.time_us t.kernels.(i))) Engine.Deliver i
          | None -> ());
          ensure_step t i;
          ensure_wake t i;
          true
        end)
  end

(* Fire the installed balancer and advance its schedule: an event
   executes before the balancer iff its (revalidated) time is below
   [balance_at], [step_below]'s horizon. *)
let fire_balancer t =
  (match t.balancer with Some f -> f () | None -> ());
  t.balance_at <- t.balance_at +. t.balance_every

(* the first firing is one period after the install, wherever the
   frontier stands then *)
let set_balancer t ~every_us f =
  if every_us <= 0.0 then invalid_arg "Cluster.set_balancer: need a positive period";
  t.balancer <- Some f;
  t.balance_every <- every_us;
  t.balance_at <- Engine.now t.engine +. every_us

let rec step_once t =
  if step_below t ~horizon:t.balance_at then true
  else if t.balancer <> None && not (Engine.is_empty t.engine) then begin
    (* not quiescent — execution is gated at a pending balancing
       point.  Fire it here so [false] means quiescent for every
       caller, including external drivers stepping the cluster
       themselves (the fuzz harness, interactive tools). *)
    fire_balancer t;
    step_once t
  end
  else false

let run ?(max_events = 2_000_000) t =
  let budget = ref max_events in
  while step_once t do
    decr budget;
    if !budget <= 0 then failwith "Cluster.run: event budget exceeded (livelock?)"
  done

let run_until_result ?(max_events = 2_000_000) t tid =
  let budget = ref max_events in
  (* probing two hash tables before every event is measurable in the hot
     loop; both tables only ever grow, so O(1) length checks gate the
     probes and the common no-news iteration touches neither *)
  let probe () =
    match Hashtbl.find_opt t.results tid with
    | Some r -> Some r
    | None ->
      if Hashtbl.mem t.failures tid then
        raise (Thread_unavailable (Hashtbl.find t.failures tid));
      None
  in
  let rec go ~done_n ~fail_n =
    let dn = Hashtbl.length t.results and fn = Hashtbl.length t.failures in
    let hit = if dn <> done_n || fn <> fail_n then probe () else None in
    match hit with
    | Some r -> r
    | None ->
      if not (step_once t) then
        failwith "Cluster.run_until_result: cluster quiescent without a result";
      decr budget;
      if !budget <= 0 then failwith "Cluster.run_until_result: event budget exceeded";
      go ~done_n:dn ~fail_n:fn
  in
  go ~done_n:(-1) ~fail_n:(-1)
