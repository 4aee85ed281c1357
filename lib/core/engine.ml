type event =
  | Step of int
  | Deliver of int
  | Wake of int
  | Gc of int
  | Timer of int
  | Chaos of int

(* Priority encoding.  Simultaneous events are ordered node-major: the
   lower node index wins, and within one node the kinds order as
   Chaos < Gc < Deliver < Wake < Step < Timer — a scheduled crash or
   restart takes effect before anything else at its instant, an automatic
   collection runs inline before the node does other work, a message
   delivery beats a scheduling step, a wait-timeout expiry (Wake) makes
   its waiter ready before the instant's scheduling step runs, and
   retransmission deadlines fire after regular work.  The insertion
   sequence number inside the heap breaks any remaining tie FIFO, so
   the order is total and the heap deterministic. *)
let n_kinds = 6

let rank = function
  | Chaos i -> i * n_kinds
  | Gc i -> (i * n_kinds) + 1
  | Deliver i -> (i * n_kinds) + 2
  | Wake i -> (i * n_kinds) + 3
  | Step i -> (i * n_kinds) + 4
  | Timer i -> (i * n_kinds) + 5

type t = {
  pq : event Sim.Pqueue.t;
  clock : Sim.Clock.t;  (* frontier: time of the last event popped *)
  queued : bool array;  (* by [rank]: whether that (kind, node) is in [pq] *)
  mutable pushes : int;
  mutable pops : int;
  mutable stale : int;
}

let create ~n_nodes () =
  {
    pq = Sim.Pqueue.create ();
    clock = Sim.Clock.create ();
    queued = Array.make (n_nodes * n_kinds) false;
    pushes = 0;
    pops = 0;
    stale = 0;
  }

let now t = Sim.Clock.now t.clock

(* At most one queued entry per (event kind, node): a second schedule is
   a no-op.  The existing entry is never later than the wanted time —
   validity is re-checked at pop, and a stale entry is rescheduled at
   its corrected time — so dropping the duplicate is safe. *)
let schedule t ~at ev =
  let r = rank ev in
  if not t.queued.(r) then begin
    t.queued.(r) <- true;
    t.pushes <- t.pushes + 1;
    Sim.Pqueue.push t.pq ~time:at ~rank:r ev
  end

let reschedule t ~at ev =
  t.stale <- t.stale + 1;
  schedule t ~at ev

let peek t =
  if Sim.Pqueue.is_empty t.pq then None else Some (Sim.Pqueue.min_time t.pq)

(* The popped time is readable as [now t] (the pop advanced the clock
   to it), so no [(time * event)] pair is built.  The hot loop runs this
   once per event. *)
let take t =
  if Sim.Pqueue.is_empty t.pq then None
  else begin
    let time = Sim.Pqueue.min_time t.pq in
    let ev = Sim.Pqueue.take_min t.pq in
    t.queued.(rank ev) <- false;
    t.pops <- t.pops + 1;
    Sim.Clock.advance_to t.clock time;
    Some ev
  end

let pending t = Sim.Pqueue.length t.pq
let pushes t = t.pushes
let pops t = t.pops
let stale_pops t = t.stale
