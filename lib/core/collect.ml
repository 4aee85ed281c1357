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
  cycles : Ert.Gc.t array;
      (* per-node cycle state, reused by every cycle of the node's
         kernel; an open one is the node's in-progress incremental
         cycle.  Soft state, like the location directory: a crash
         discards it (Gc.abort) and the next threshold crossing starts
         a fresh cycle from scratch. *)
  t0 : Sim.Clock.t;  (* the node clock when the running increment began *)
  mutable pinned : Ert.Oid.t list;  (* harness-held references: GC roots *)
}

let create ~mode ~threshold ~budget ~kernels ~engine ~bus ~quiesce =
  { mode; budget; kernels; engine; bus; quiesce;
    threshold = Option.value threshold ~default:max_int;
    cycles = Array.map Ert.Gc.create kernels;
    t0 = Sim.Clock.create ();
    pinned = [] }

let mode t = t.mode
let in_progress t i = Ert.Gc.is_open t.cycles.(i)
let pin t oid = t.pinned <- oid :: t.pinned
let over_threshold t i = Ert.Heap.live_bytes (K.heap t.kernels.(i)) > t.threshold

(* an increment already queued its successor; only the threshold starts
   a brand-new cycle (matching the stop-the-world cadence) *)
let due t i = in_progress t i || over_threshold t i

(* a finished collection, either tier: the bus counts it *)
let finished t i cy =
  E.emit_gc t.bus ~node:i ~clock:(K.clock t.kernels.(i)) ~swept:(Ert.Gc.swept cy)
    ~live:(Ert.Gc.live cy) ~bytes_freed:(Ert.Gc.bytes_freed cy)

(* automatic collection: the templates identify pointers only at bus
   stops, so under preemptive scheduling the node is quiesced first —
   the same discipline migration capture uses (section 2.2.1); without
   a quantum every segment is already parked between events *)
let collect_stw t i =
  t.quiesce i;
  let k = t.kernels.(i) and cy = t.cycles.(i) in
  Ert.Gc.collect cy ~extra_roots:t.pinned ~extra_addrs:[];
  K.charge_insns k (CM.gc_collect_insns ~live:(Ert.Gc.live cy));
  finished t i cy

(* one bounded increment of the incremental tier (DESIGN.md §17).
   Opening a cycle quiesces the node exactly as the stop-the-world tier
   does — the atomic root scan happens inside the first [step] and the
   templates identify pointers only at bus stops; every later increment
   interleaves with execution, protected by the write barrier and graft
   hook, and is charged [Cost_model.gc_increment_insns] instead of the
   lump pause, and published with its phase.  The cycle drives itself
   to completion by self-scheduling [Engine.Gc] at the post-charge
   clock; [Engine]'s dedup makes that safe alongside the Step handler's
   threshold checks. *)
let increment t i =
  let k = t.kernels.(i) and cy = t.cycles.(i) in
  if not (Ert.Gc.is_open cy) then begin
    t.quiesce i;
    Ert.Gc.start cy ~extra_roots:t.pinned ~extra_addrs:[];
    (* snapshot + barrier installation *)
    K.charge_insns k CM.gc_cycle_open_insns
  end;
  let clock = K.clock k in
  t.t0.Sim.Clock.now <- clock.Sim.Clock.now;
  let scanned = Ert.Gc.step cy ~budget:t.budget in
  K.charge_insns k (CM.gc_increment_insns ~scanned);
  E.emit_gc_phase t.bus ~node:i ~arch:(K.arch k)
    ~phase:(Ert.Gc.phase_name (Ert.Gc.phase cy)) ~scanned ~t0:t.t0 ~t1:clock;
  if Ert.Gc.is_open cy then Engine.schedule t.engine ~at:clock.Sim.Clock.now (Engine.Gc i)
  else finished t i cy

let collect t i =
  match t.mode with
  | Gc_stw -> collect_stw t i
  | Gc_incremental -> increment t i

(* send-off under an active mark cycle: grey what is leaving before the
   capture removes it from the node's root set *)
let grey_segment t i seg =
  let cy = t.cycles.(i) in
  if Ert.Gc.is_open cy then Ert.Gc.grey_segment cy seg

let grey_addr t i addr =
  let cy = t.cycles.(i) in
  if Ert.Gc.is_open cy then Ert.Gc.grey_addr cy addr

(* an in-progress mark cycle is soft state: discard it with the
   incarnation (the directory rule); a post-restart threshold crossing
   starts a fresh cycle from scratch *)
let discard t i =
  let cy = t.cycles.(i) in
  if Ert.Gc.is_open cy then Ert.Gc.abort cy

(* the restarted node's kernel is new: so is its cycle state *)
let restart t i = t.cycles.(i) <- Ert.Gc.create t.kernels.(i)
