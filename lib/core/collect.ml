module K = Ert.Kernel
module E = Events
module CM = Mobility.Cost_model

type mode =
  | Gc_stw
  | Gc_incremental

type t = {
  mode : mode;
  threshold : int;  (* collect a node whose live heap exceeds this; max_int: never *)
  budget : int;  (* pointer slots per incremental increment *)
  kernels : K.t array;  (* the cluster's, read only here *)
  engine : Engine.t;
  bus : E.bus;
  quiesce : int -> unit;
  cycles : Ert.Gc.cycle option array;
      (* per-node in-progress incremental mark cycle.  Soft state, like
         the location directory: a crash discards it (Gc.abort) and the
         next threshold crossing starts a fresh cycle from scratch. *)
  mutable pinned : Ert.Oid.t list;  (* harness-held references: GC roots *)
}

let create ~mode ~threshold ~budget ~kernels ~engine ~bus ~quiesce =
  { mode; budget; kernels; engine; bus; quiesce;
    threshold = Option.value threshold ~default:max_int;
    cycles = Array.make (Array.length kernels) None;
    pinned = [] }

let mode t = t.mode
let in_progress t i = t.cycles.(i) <> None
let pin t oid = t.pinned <- oid :: t.pinned
let over_threshold t i = Ert.Heap.live_bytes (K.heap t.kernels.(i)) > t.threshold

(* an increment already queued its successor; only the threshold starts
   a brand-new cycle (matching the stop-the-world cadence) *)
let due t i = in_progress t i || over_threshold t i

(* a finished collection, either tier: the bus counts it *)
let finished t i ~time (stats : Ert.Gc.stats) =
  E.emit t.bus
    (E.Ev_gc
       { time; node = i; swept = stats.Ert.Gc.gc_swept; live = stats.Ert.Gc.gc_live;
         bytes_freed = stats.Ert.Gc.gc_bytes_freed })

(* automatic collection: the templates identify pointers only at bus
   stops, so under preemptive scheduling the node is quiesced first —
   the same discipline migration capture uses (section 2.2.1); without
   a quantum every segment is already parked between events *)
let collect_stw t i =
  t.quiesce i;
  let k = t.kernels.(i) in
  let stats = Ert.Gc.collect ~extra_roots:t.pinned k in
  K.charge_insns k (CM.gc_collect_insns ~live:stats.Ert.Gc.gc_live);
  finished t i ~time:(K.time_us k) stats

(* charge one increment that began at [t0] and publish its phase;
   returns the post-charge clock *)
let charge_increment t i ~t0 ~phase ~scanned =
  let k = t.kernels.(i) in
  K.charge_insns k (CM.gc_increment_insns ~scanned);
  let t1 = K.time_us k in
  E.emit t.bus (E.Ev_gc_phase { time = t1; node = i; phase; scanned; pause_us = t1 -. t0 });
  if E.spans_on t.bus then begin
    let a = K.arch k in
    E.emit_span t.bus ~node:i ~pair:(E.arch_pair a a) ~name:phase ~t0 ~t1 ()
  end;
  t1

(* one bounded increment of the incremental tier (DESIGN.md §17).
   Opening a cycle quiesces the node exactly as the stop-the-world tier
   does — the atomic root scan happens inside the first [step] and the
   templates identify pointers only at bus stops; every later increment
   interleaves with execution, protected by the write barrier and graft
   hook, and is charged [Cost_model.gc_increment_insns] instead of the
   lump pause.  The cycle drives itself to completion by self-scheduling
   [Engine.Gc] at the post-charge clock; [Engine]'s dedup makes that
   safe alongside the Step handler's threshold checks. *)
let increment t i =
  let k = t.kernels.(i) in
  let cy =
    match t.cycles.(i) with
    | Some cy -> cy
    | None ->
      t.quiesce i;
      let cy = Ert.Gc.start ~extra_roots:t.pinned k in
      t.cycles.(i) <- Some cy;
      (* snapshot + barrier installation *)
      K.charge_insns k CM.gc_cycle_open_insns;
      cy
  in
  let t0 = K.time_us k in
  match Ert.Gc.step cy k ~budget:t.budget with
  | Ert.Gc.Step_more { scanned; phase } ->
    let t1 = charge_increment t i ~t0 ~phase:(Ert.Gc.phase_name phase) ~scanned in
    Engine.schedule t.engine ~at:t1 (Engine.Gc i)
  | Ert.Gc.Step_done { scanned; stats } ->
    t.cycles.(i) <- None;
    finished t i ~time:(charge_increment t i ~t0 ~phase:"gc_sweep" ~scanned) stats

let collect t i =
  match t.mode with
  | Gc_stw -> collect_stw t i
  | Gc_incremental -> increment t i

(* send-off under an active mark cycle: grey what is leaving before the
   capture removes it from the node's root set *)
let grey_segment t i seg =
  match t.cycles.(i) with
  | Some cy -> Ert.Gc.grey_segment cy t.kernels.(i) seg
  | None -> ()

let grey_addr t i addr =
  match t.cycles.(i) with
  | Some cy -> Ert.Gc.grey_addr cy t.kernels.(i) addr
  | None -> ()

(* an in-progress mark cycle is soft state: discard it with the
   incarnation (the directory rule); a post-restart threshold crossing
   starts a fresh cycle from scratch *)
let discard t i =
  match t.cycles.(i) with
  | Some cy ->
    Ert.Gc.abort cy t.kernels.(i);
    t.cycles.(i) <- None
  | None -> ()
