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
  step_queued : bool array;
  deliver_queued : bool array;
  wake_queued : bool array;
  gc_queued : bool array;
  timer_queued : bool array;
  chaos_queued : bool array;
  mutable pushes : int;
  mutable pops : int;
  mutable stale : int;
}

let create ~n_nodes () =
  {
    pq = Sim.Pqueue.create ();
    clock = Sim.Clock.create ();
    step_queued = Array.make n_nodes false;
    deliver_queued = Array.make n_nodes false;
    wake_queued = Array.make n_nodes false;
    gc_queued = Array.make n_nodes false;
    timer_queued = Array.make n_nodes false;
    chaos_queued = Array.make n_nodes false;
    pushes = 0;
    pops = 0;
    stale = 0;
  }

let now t = Sim.Clock.now t.clock

let flag t = function
  | Step i -> t.step_queued.(i)
  | Deliver i -> t.deliver_queued.(i)
  | Wake i -> t.wake_queued.(i)
  | Gc i -> t.gc_queued.(i)
  | Timer i -> t.timer_queued.(i)
  | Chaos i -> t.chaos_queued.(i)

let set_flag t v = function
  | Step i -> t.step_queued.(i) <- v
  | Deliver i -> t.deliver_queued.(i) <- v
  | Wake i -> t.wake_queued.(i) <- v
  | Gc i -> t.gc_queued.(i) <- v
  | Timer i -> t.timer_queued.(i) <- v
  | Chaos i -> t.chaos_queued.(i) <- v

(* At most one queued entry per (event kind, node): a second schedule is
   a no-op.  The existing entry is never later than the wanted time —
   validity is re-checked at pop, and a stale entry is rescheduled at
   its corrected time — so dropping the duplicate is safe. *)
let schedule t ~at ev =
  if not (flag t ev) then begin
    set_flag t true ev;
    t.pushes <- t.pushes + 1;
    Sim.Pqueue.push t.pq ~time:at ~rank:(rank ev) ev
  end

let reschedule t ~at ev =
  t.stale <- t.stale + 1;
  schedule t ~at ev

let peek t =
  if Sim.Pqueue.is_empty t.pq then None else Some (Sim.Pqueue.min_time t.pq)

(* [pop] without the [(time * event) option] wrapping: the popped time
   is readable as [now t] (the pop advanced the clock to it).  The hot
   loop runs this once per event. *)
let take t =
  if Sim.Pqueue.is_empty t.pq then None
  else begin
    let time = Sim.Pqueue.min_time t.pq in
    let ev = Sim.Pqueue.take_min t.pq in
    set_flag t false ev;
    t.pops <- t.pops + 1;
    Sim.Clock.advance_to t.clock time;
    Some ev
  end

let pending t = Sim.Pqueue.length t.pq
let pushes t = t.pushes
let pops t = t.pops
let stale_pops t = t.stale
