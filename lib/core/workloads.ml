let table1_src =
  {|
// The Table 1 workload: the moved fragment carries 13 variables
// (dest, iters, home, t0, i, v1..v8), as in the paper's measurement.
object Agent
  operation trip[dest : int, iters : int] -> [r : int]
    var home : int <- thisnode
    var v1 : int <- 1
    var v2 : int <- 2
    var v3 : int <- 3
    var v4 : int <- 4
    var v5 : int <- 5
    var v6 : int <- 6
    var v7 : int <- 7
    var v8 : int <- 8
    var t0 : int <- timenow
    var i : int <- 0
    loop
      exit when i >= iters
      i <- i + 1
      move self to dest
      move self to home
    end loop
    var t1 : int <- timenow
    r <- (t1 - t0) / iters + (v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8) * 0
  end trip
end Agent
|}

let intranode_src =
  {|
object Adder
  operation add[a : int, b : int] -> [r : int]
    r <- a + b
  end add
end Adder

object Agent
  operation work[n : int, where : int] -> [r : int]
    move self to where
    var a : Adder <- new Adder
    var t0 : int <- timenow
    var i : int <- 0
    var sum : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      sum <- a.add[sum, i] * 3 / 3 - i + i
    end loop
    var t1 : int <- timenow
    r <- t1 - t0
  end work
end Agent
|}

let fig2_src =
  {|
object Fib
  operation fib[n : int] -> [r : int]
    if n < 2 then
      r <- n
    else
      r <- self.fib[n - 1] + self.fib[n - 2]
    end if
  end fib
end Fib

object Main
  operation start[n : int] -> [r : int]
    var f : Fib <- new Fib
    var acc : int <- 0
    var i : int <- 0
    loop
      exit when i >= 50
      i <- i + 1
      acc <- acc + i * i - (i - 1) * (i + 1)
    end loop
    r <- f.fib[n] + acc - 50
  end start
end Main
|}

(* the Table 1 program with a configurable fragment size: [n_vars] live
   integer variables carried across every move (plus dest/iters/home/t0/i,
   which are live too) *)
let table1_src_sized ~n_vars =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "object Agent\n  operation trip[dest : int, iters : int] -> [r : int]\n";
  Buffer.add_string buf "    var home : int <- thisnode\n";
  for i = 1 to n_vars do
    Buffer.add_string buf (Printf.sprintf "    var v%d : int <- %d\n" i i)
  done;
  Buffer.add_string buf
    "    var t0 : int <- timenow\n\
    \    var i : int <- 0\n\
    \    loop\n\
    \      exit when i >= iters\n\
    \      i <- i + 1\n\
    \      move self to dest\n\
    \      move self to home\n\
    \    end loop\n\
    \    var t1 : int <- timenow\n\
    \    r <- (t1 - t0) / iters";
  for i = 1 to n_vars do
    Buffer.add_string buf (Printf.sprintf " + v%d * 0" i)
  done;
  Buffer.add_string buf "\n  end trip\nend Agent\n";
  Buffer.contents buf

(* The engine-scaling workload: one agent tours the ring of nodes,
   spinning a little at each stop.  Under a small preemptive quantum the
   spin decomposes into many cheap scheduling events, so the cost of
   EVENT SELECTION — O(nodes) rescans in the seed, O(log pending) heap
   operations now — dominates the run and the difference is measurable. *)
let scaling_src =
  {|
object Agent
  operation tour[n : int, hops : int, spins : int] -> [r : int]
    var home : int <- thisnode
    var i : int <- 0
    var j : int <- 0
    var dest : int <- 0
    var acc : int <- 0
    loop
      exit when i >= hops
      i <- i + 1
      dest <- i - (i / n) * n
      move self to dest
      j <- 0
      loop
        exit when j >= spins
        j <- j + 1
        acc <- acc + j - (j / 2) * 2
      end loop
    end loop
    move self to home
    r <- acc
  end tour
end Agent
|}

type roundtrip = {
  rt_us_per_trip : float;
  rt_bytes_sent : int;
  rt_messages : int;
  rt_conversion_calls : int;
  rt_retransmits : int;
  rt_host_seconds : float;
}

let measure_roundtrip ?protocol ?wire_impl ?faults ?n_vars ~home ~dest ~iters
    () =
  let t_start = Unix.gettimeofday () in
  let cl = Cluster.create ?protocol ?wire_impl ?faults ~archs:[ home; dest ] () in
  let source =
    match n_vars with
    | None -> table1_src
    | Some n -> table1_src_sized ~n_vars:n
  in
  ignore (Cluster.compile_and_load cl ~name:"table1" source);
  let agent = Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    Cluster.spawn cl ~node:0 ~target:agent ~op:"trip"
      ~args:[ Ert.Value.Vint 1l; Ert.Value.Vint (Int32.of_int iters) ]
  in
  let result = Cluster.run_until_result cl tid in
  let us =
    match result with
    | Some (Ert.Value.Vint v) -> Int32.to_float v
    | _ -> failwith "table1 workload did not return a time"
  in
  {
    rt_us_per_trip = us;
    rt_bytes_sent = Enet.Netsim.bytes_sent (Cluster.network cl);
    rt_messages = Enet.Netsim.messages_sent (Cluster.network cl);
    rt_conversion_calls = Cluster.total_counter cl (fun c -> c.Events.c_conv_calls);
    rt_retransmits = Cluster.total_counter cl (fun c -> c.Events.c_retransmits);
    rt_host_seconds = Unix.gettimeofday () -. t_start;
  }

type intranode = {
  in_result : int;
  in_virtual_us : float;
  in_insns : int;
  in_host_seconds : float;
}

let measure_intranode ?levels ~arch ~migrated ~n () =
  let t_start = Unix.gettimeofday () in
  (* node 1 is the measured machine; node 0 only launches when migrating *)
  let cl = Cluster.create ~archs:[ Isa.Arch.sparc; arch ] () in
  ignore (Cluster.compile_and_load ?levels cl ~name:"intranode" intranode_src);
  let start_node = if migrated then 0 else 1 in
  let agent = Cluster.create_object cl ~node:start_node ~class_name:"Agent" in
  let k1 = Cluster.kernel cl 1 in
  let insns_before = Ert.Kernel.insns_executed k1 in
  let tid =
    Cluster.spawn cl ~node:start_node ~target:agent ~op:"work"
      ~args:[ Ert.Value.Vint (Int32.of_int n); Ert.Value.Vint 1l ]
  in
  let result = Cluster.run_until_result cl tid in
  let us =
    match result with
    | Some (Ert.Value.Vint v) -> Int32.to_float v
    | _ -> failwith "intranode workload did not return a time"
  in
  {
    in_result = int_of_float us;
    in_virtual_us = us;
    in_insns = Ert.Kernel.insns_executed k1 - insns_before;
    in_host_seconds = Unix.gettimeofday () -. t_start;
  }

type scaling = {
  sc_nodes : int;
  sc_result : int;
  sc_events : int;
  sc_virtual_us : float;
  sc_host_seconds : float;
  sc_events_per_sec : float;
}

let scaling_archs n_nodes =
  let pool = [| Isa.Arch.sparc; Isa.Arch.sun3; Isa.Arch.hp9000_433; Isa.Arch.vax |] in
  List.init n_nodes (fun i -> pool.(i mod Array.length pool))

let measure_scaling ?(quantum = 20) ?faults ~n_nodes ~hops ~spins () =
  let cl = Cluster.create ~quantum ?faults ~archs:(scaling_archs n_nodes) () in
  ignore (Cluster.compile_and_load cl ~name:"scaling" scaling_src);
  let agent = Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid =
    Cluster.spawn cl ~node:0 ~target:agent ~op:"tour"
      ~args:
        [
          Ert.Value.Vint (Int32.of_int n_nodes);
          Ert.Value.Vint (Int32.of_int hops);
          Ert.Value.Vint (Int32.of_int spins);
        ]
  in
  (* time the event loop only, not compilation; settle the collector so
     one run's garbage is not charged to the next *)
  Gc.full_major ();
  let t_start = Unix.gettimeofday () in
  let r =
    match Cluster.run_until_result cl tid with
    | Some (Ert.Value.Vint v) -> Int32.to_int v
    | _ -> failwith "scaling workload did not return a value"
  in
  let dt = Unix.gettimeofday () -. t_start in
  let events = Cluster.events_processed cl in
  {
    sc_nodes = n_nodes;
    sc_result = r;
    sc_events = events;
    sc_virtual_us = Cluster.global_time_us cl;
    sc_host_seconds = dt;
    sc_events_per_sec = float_of_int events /. Float.max dt 1e-9;
  }

(* The eviction workload: [workers] compute-bound threads all spawned on
   node 0 of an otherwise idle homogeneous cluster.  The program never
   moves itself and never polls cooperatively — only forced eviction
   ([Cluster.evict_thread], armed by the balancer below) can spread the
   load.  Each worker's digest carries the node it finished on, so the
   result proves where the balancer actually put things. *)
let hotspot_src =
  {|
object Worker
  operation work[rounds : int, spins : int] -> [r : int]
    var i : int <- 0
    var j : int <- 0
    var acc : int <- 0
    loop
      exit when i >= rounds
      i <- i + 1
      j <- 0
      loop
        exit when j >= spins
        j <- j + 1
        acc <- acc + j - (j / 2) * 2
      end loop
    end loop
    r <- acc * 100 + thisnode
  end work
end Worker
|}

let hot_spot_balancer ?(threshold = 2) cl =
  if threshold < 2 then
    invalid_arg
      (Printf.sprintf "Workloads.hot_spot_balancer: threshold %d is below 2" threshold);
  let module T = Ert.Thread in
  let n = Cluster.n_nodes cl in
  (* hysteresis: the balancer is blind to evictions still in flight (the
     victim has left the hot node's queue but not yet landed on the cold
     one), so back-to-back decisions overshoot and the cluster thrashes.
     One eviction per cooldown window gives each payload time to land
     before the next reading.  Virtual-time based, so it is
     deterministic. *)
  let cooldown_us = 25_000.0 in
  let last_fire = ref neg_infinity in
  fun () ->
    let now = Cluster.global_time_us cl in
    if now -. !last_fire >= cooldown_us then begin
      let depth i = Ert.Kernel.ready_depth (Cluster.kernel cl i) in
      let hot = ref 0 and cold = ref 0 in
      for i = 1 to n - 1 do
        if depth i > depth !hot then hot := i;
        if depth i < depth !cold then cold := i
      done;
      if !hot <> !cold && depth !hot - depth !cold >= threshold then begin
        let k = Cluster.kernel cl !hot in
        (* lowest-id runnable segment: a deterministic choice *)
        let candidates =
          Ert.Kernel.segments k
          |> List.filter (fun s ->
                 s.T.seg_live
                 &&
                 match s.T.seg_status with
                 | T.Parked T.Run -> true
                 | _ -> false)
          |> List.sort (fun a b -> compare a.T.seg_id b.T.seg_id)
        in
        match candidates with
        | s :: _ ->
          last_fire := now;
          Cluster.evict_thread cl ~node:!hot ~seg_id:s.T.seg_id ~dest:!cold
        | [] -> ()
      end
    end

(* The location-directory workload: a large cold population of cells
   fills the dense object tables and the partitioned directory, while a
   small co-located "flock" of hot cells tours the ring as batched group
   migrations.  Chasers on fixed nodes hold references to flock members
   — stale the moment the first tour hop lands — so every remote invoke
   exercises the locate machinery: forwarding-proxy walks, chain
   collapse hints, and (when an invoke outruns an in-flight transfer)
   directory lookups.  The chasers' digests prove every call landed. *)
let cluster_src =
  {|
object Cell
  operation get[x : int] -> [r : int]
    r <- x
  end get
end Cell

object Chaser
  operation chase[c : Cell, times : int] -> [r : int]
    var i : int <- 0
    var acc : int <- 0
    loop
      exit when i >= times
      i <- i + 1
      acc <- acc + c.get[i]
    end loop
    r <- acc
  end chase
end Chaser
|}

type cluster_run = {
  cr_nodes : int;
  cr_objects : int;
  cr_result : int;
  cr_expected : int;
  cr_events : int;
  cr_virtual_us : float;
  cr_host_seconds : float;
  cr_run_seconds : float;
  cr_events_per_sec : float;
  cr_messages : int;
  cr_bytes : int;
  cr_locates : int;
  cr_locate_hops : int;
  cr_mean_hops : float;
  cr_collapses : int;
  cr_dir_updates : int;
  cr_dir_applied : int;
  cr_dir_stale : int;
  cr_dir_hits : int;
  cr_dir_misses : int;
  cr_group_moves : int;
  cr_group_objects : int;
}

let measure_cluster ?(flock = 16) ?(askers = 8) ?(calls = 12)
    ?(rounds = 16) ~n_nodes ~n_objects () =
  let t_start = Unix.gettimeofday () in
  (* homogeneous ring: the point is location traffic, not conversion *)
  let archs = List.init n_nodes (fun _ -> Isa.Arch.sparc) in
  let cl = Cluster.create ~location:Cluster.Loc_directory ~archs () in
  ignore (Cluster.compile_and_load cl ~name:"cluster" cluster_src);
  (* the flock is born co-located on node 0; the cold population is
     spread round-robin (each birth registers silently with its home
     shard, so the directory starts authoritative at full scale) *)
  let flock_oids =
    List.init flock (fun _ -> Cluster.create_object cl ~node:0 ~class_name:"Cell")
  in
  for i = flock to n_objects - 1 do
    ignore (Cluster.create_object cl ~node:(i mod n_nodes) ~class_name:"Cell")
  done;
  let flock_arr = Array.of_list flock_oids in
  let tids =
    List.init askers (fun a ->
        let node = 1 + a * (n_nodes - 1) / askers in
        let chaser = Cluster.create_object cl ~node ~class_name:"Chaser" in
        Cluster.spawn cl ~node ~target:chaser ~op:"chase"
          ~args:
            [
              Ert.Value.Vref flock_arr.(a mod flock);
              Ert.Value.Vint (Int32.of_int calls);
            ])
  in
  (* the tour: one group migration per balancing point, gated on the
     previous payload having landed (otherwise the roots are not yet
     resident and the batch would capture nothing), bounded to [rounds]
     hops so the run is finite *)
  let home = ref 0 and remaining = ref rounds in
  let stride = max 1 (n_nodes / 3) in
  Cluster.set_balancer cl ~every_us:400.0 (fun () ->
      if !remaining > 0 then begin
        let k = Cluster.kernel cl !home in
        if List.for_all (fun o -> Ert.Kernel.find_object k o <> None) flock_oids
        then begin
          decr remaining;
          let dest = (!home + stride) mod n_nodes in
          Cluster.group_move cl ~node:!home ~dest flock_oids;
          home := dest
        end
      end);
  Gc.full_major ();
  let t_run = Unix.gettimeofday () in
  Cluster.run cl;
  let dt_run = Unix.gettimeofday () -. t_run in
  let result =
    List.fold_left
      (fun acc tid ->
        match Cluster.result cl tid with
        | Some (Some (Ert.Value.Vint v)) -> acc + Int32.to_int v
        | _ -> failwith "cluster chaser did not finish")
      0 tids
  in
  let c f = Cluster.total_counter cl f in
  let locates = c (fun x -> x.Events.c_locates) in
  let hops = c (fun x -> x.Events.c_locate_hops) in
  let applied, stale, hits, misses = Cluster.directory_stats cl in
  let events = Cluster.events_processed cl in
  {
    cr_nodes = n_nodes;
    cr_objects = n_objects;
    cr_result = result;
    cr_expected = askers * (calls * (calls + 1) / 2);
    cr_events = events;
    cr_virtual_us = Cluster.global_time_us cl;
    cr_host_seconds = Unix.gettimeofday () -. t_start;
    cr_run_seconds = dt_run;
    cr_events_per_sec = float_of_int events /. Float.max dt_run 1e-9;
    cr_messages = Enet.Netsim.messages_sent (Cluster.network cl);
    cr_bytes = Enet.Netsim.bytes_sent (Cluster.network cl);
    cr_locates = locates;
    cr_locate_hops = hops;
    cr_mean_hops =
      (if locates = 0 then 0.0 else float_of_int hops /. float_of_int locates);
    cr_collapses = c (fun x -> x.Events.c_collapses);
    cr_dir_updates = c (fun x -> x.Events.c_dir_updates);
    cr_dir_applied = applied;
    cr_dir_stale = stale;
    cr_dir_hits = hits;
    cr_dir_misses = misses;
    cr_group_moves = c (fun x -> x.Events.c_group_moves);
    cr_group_objects = c (fun x -> x.Events.c_group_objects);
  }

type evict_run = {
  er_result : int;
  er_virtual_us : float;
  er_events : int;
  er_evictions : int;
  er_peak_depth_home : int;
  er_final_spread : int list;
  er_trace : string;
  er_phase_table : string;
  er_host_seconds : float;
}

let measure_evict ?(async_migration = false) ?(workers = 6)
    ?(every_us = 400.0) ?(threshold = 2) ~n_nodes ~rounds ~spins () =
  let t_start = Unix.gettimeofday () in
  (* homogeneous cluster: the point is queue depth, not conversion *)
  let archs = List.init n_nodes (fun _ -> Isa.Arch.sparc) in
  let cl = Cluster.create ~quantum:40 ~async_migration ~archs () in
  let trace = Buffer.create 4096 in
  Cluster.set_trace cl (fun line ->
      Buffer.add_string trace line;
      Buffer.add_char trace '\n');
  let prof = Obs.Profile.create () in
  Cluster.attach_profile cl prof;
  ignore (Cluster.compile_and_load cl ~name:"hotspot" hotspot_src);
  let spawn_worker _ =
    let w = Cluster.create_object cl ~node:0 ~class_name:"Worker" in
    Cluster.spawn cl ~node:0 ~target:w ~op:"work"
      ~args:[ Ert.Value.Vint (Int32.of_int rounds); Ert.Value.Vint (Int32.of_int spins) ]
  in
  let tids = List.init workers spawn_worker in
  Cluster.set_balancer cl ~every_us (hot_spot_balancer ~threshold cl);
  Cluster.run cl;
  let digests =
    List.map
      (fun tid ->
        match Cluster.result cl tid with
        | Some (Some (Ert.Value.Vint v)) -> Int32.to_int v
        | _ -> failwith "hotspot worker did not return a digest")
      tids
  in
  let spread = List.map (fun d -> d mod 100) digests in
  let evictions =
    List.init n_nodes (fun i -> Ert.Kernel.evictions (Cluster.kernel cl i))
    |> List.fold_left ( + ) 0
  in
  {
    er_result = List.fold_left ( + ) 0 digests;
    er_virtual_us = Cluster.global_time_us cl;
    er_events = Cluster.events_processed cl;
    er_evictions = evictions;
    er_peak_depth_home = Ert.Kernel.peak_ready_depth (Cluster.kernel cl 0);
    er_final_spread = spread;
    er_trace = Buffer.contents trace;
    er_phase_table = Obs.Profile.table prof;
    er_host_seconds = Unix.gettimeofday () -. t_start;
  }
