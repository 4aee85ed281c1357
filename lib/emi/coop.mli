(** Cooperative threads for the machine-independent interpreters.

    The effect-based analogue of the native kernel's resumable
    suspensions ({!Isa.Suspend}): a thread that executes [wait] is
    captured as a first-class continuation and parked on a
    per-(object, condition) FIFO queue; [notify]/[notify_all] move
    waiters to a ready queue, where they resume — Mesa-style, after
    the signaller yields — under {!drain}.  Timed waits resume with
    [timed out = true] once the virtual clock reaches their deadline;
    the clock only advances when every thread is parked, jumping to
    the earliest deadline, so non-waiting programs observe time 0 and
    the legacy single-threaded execution order exactly. *)

type t

val create : unit -> t

val now : t -> float
(** Virtual time in microseconds; 0 until a timed wait expires. *)

val spawn : t -> (unit -> unit) -> unit
(** Run a thread inline under this module's effect handler.  Returns when
    the thread completes or first waits; a thread that never waits
    therefore runs to completion here, preserving the legacy
    process-at-creation semantics. *)

val wait : t -> obj:Mvalue.obj -> cond:int -> timeout:float option -> bool
(** Park the calling thread on [(obj, cond)].  Returns [false] when
    woken by a notify, [true] when the (relative, microseconds)
    timeout expired first.  Must run inside {!spawn}. *)

val notify : t -> obj:Mvalue.obj -> cond:int -> unit
(** Wake the oldest waiter on [(obj, cond)], if any.  It runs when the
    current thread next completes or waits. *)

val notify_all : t -> obj:Mvalue.obj -> cond:int -> unit
(** Wake every waiter on [(obj, cond)], in arrival order. *)

val drain : t -> unit
(** Run ready threads — and, when all are parked, expire timed waits in
    (deadline, arrival) order — until none remain.
    @raise Failure on deadlock: threads blocked forever with no
    timeout. *)
