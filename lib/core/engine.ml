type kind =
  | Chaos
  | Gc
  | Deliver
  | Wake
  | Step
  | Timer

(* Priority encoding.  Simultaneous events are ordered node-major: the
   lower node index wins, and within one node the kinds order as
   Chaos < Gc < Deliver < Wake < Step < Timer — a scheduled crash or
   restart takes effect before anything else at its instant, an automatic
   collection runs inline before the node does other work, a message
   delivery beats a scheduling step, a wait-timeout expiry (Wake) makes
   its waiter ready before the instant's scheduling step runs, and
   retransmission deadlines fire after regular work.  At most one entry
   per rank is ever queued, so [(time, rank)] is a total order on the
   heap's entries. *)
let n_kinds = 6

let rank kind i =
  (i * n_kinds)
  + (match kind with Chaos -> 0 | Gc -> 1 | Deliver -> 2 | Wake -> 3 | Step -> 4 | Timer -> 5)

let kinds = [| Chaos; Gc; Deliver; Wake; Step; Timer |]
let kind r = kinds.(r mod n_kinds)
let node r = r / n_kinds

(* A binary min-heap of ranks over [size] entries of two parallel arrays
   ([times] is an unboxed float array), sized for every rank at once, so
   a push neither allocates nor grows. *)
type t = {
  times : float array;
  ranks : int array;
  mutable size : int;
  clock : Sim.Clock.t;  (* frontier: time of the last event popped *)
  queued : bool array;  (* by [rank]: whether that (kind, node) is in the heap *)
  mutable pushes : int;
  mutable pops : int;
  mutable stale : int;
}

let create ~n_nodes () =
  let capacity = n_nodes * n_kinds in
  {
    times = Array.make capacity 0.0;
    ranks = Array.make capacity 0;
    size = 0;
    clock = Sim.Clock.create ();
    queued = Array.make capacity false;
    pushes = 0;
    pops = 0;
    stale = 0;
  }

let now t = Sim.Clock.now t.clock

(* entry i orders before entry j: time, then rank *)
let lt t i j =
  t.times.(i) < t.times.(j) || (t.times.(i) = t.times.(j) && t.ranks.(i) < t.ranks.(j))

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let rk = t.ranks.(i) in
  t.ranks.(i) <- t.ranks.(j);
  t.ranks.(j) <- rk

(* At most one queued entry per (event kind, node): a second schedule is
   a no-op.  The existing entry is never later than the wanted time —
   validity is re-checked at pop, and a stale entry is rescheduled at
   its corrected time — so dropping the duplicate is safe. *)
let schedule t ~at kind i =
  let r = rank kind i in
  if not t.queued.(r) then begin
    t.queued.(r) <- true;
    t.pushes <- t.pushes + 1;
    let n = t.size in
    t.times.(n) <- at;
    t.ranks.(n) <- r;
    t.size <- n + 1;
    let i = ref n in
    while !i > 0 && lt t !i ((!i - 1) / 2) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  end

let reschedule t ~at kind i =
  t.stale <- t.stale + 1;
  schedule t ~at kind i

let is_empty t = t.size = 0
let before t horizon = t.size > 0 && t.times.(0) < horizon

let sift_down t =
  let i = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < t.size && lt t l !m then m := l;
    if r < t.size && lt t r !m then m := r;
    if !m = !i then sifting := false
    else begin
      swap t !i !m;
      i := !m
    end
  done

(* The popped time is readable as [now t] (the pop advanced the clock
   to it), and the popped entry is its rank, so a take builds nothing.
   The hot loop runs this once per event. *)
let take t =
  if t.size = 0 then invalid_arg "Engine.take: no pending event";
  let time = t.times.(0) and r = t.ranks.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.times.(0) <- t.times.(t.size);
    t.ranks.(0) <- t.ranks.(t.size);
    sift_down t
  end;
  t.queued.(r) <- false;
  t.pops <- t.pops + 1;
  let clk = t.clock in
  if time > clk.Sim.Clock.now then clk.Sim.Clock.now <- time;
  r

let pending t = t.size
let pushes t = t.pushes
let pops t = t.pops
let stale_pops t = t.stale
