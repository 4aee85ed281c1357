(** A deterministic fault plan: what the simulated world does to the
    protocol, scheduled entirely in virtual time and seeded randomness.

    A plan describes per-message wire faults (drop / duplicate / extra
    delay, drawn from a {!Rng} stream), link-level network partitions
    with heal times, and node crash/restart windows.  The same plan and
    seed always produce the same faults at the same points of the event
    sequence — a failing run is a (seed, plan) pair, nothing more.

    The empty plan is special-cased throughout the stack: a cluster
    created with [Plan.empty] (or no plan at all) takes exactly the
    reliable-wire fast path and its event sequence is bit-identical to a
    cluster with no fault subsystem at all. *)

type partition = {
  pt_a : int list;  (** one side of the cut *)
  pt_b : int list;  (** the other side *)
  pt_from_us : float;
  pt_until_us : float;  (** heal time; [infinity] = never heals *)
}

type chaos = {
  ch_node : int;
  ch_crash_at_us : float;
  ch_restart_at_us : float option;  (** [None] = stays down *)
}

type t = {
  pl_seed : int;
  pl_drop : float;  (** per-message loss probability *)
  pl_dup : float;  (** per-message duplication probability *)
  pl_delay_p : float;  (** probability of extra delivery delay *)
  pl_delay_us : float;  (** maximum extra delay (uniform in [0, max)) *)
  pl_partitions : partition list;
  pl_chaos : chaos list;
}

val empty : t

val make :
  ?seed:int ->
  ?drop:float ->
  ?dup:float ->
  ?delay_p:float ->
  ?delay_us:float ->
  ?partitions:partition list ->
  ?chaos:chaos list ->
  unit ->
  t

val is_trivial : t -> bool
(** No fault can ever fire: the cluster may (and does) skip the whole
    reliability layer, keeping the fault-free fast path byte-identical. *)

val with_seed : t -> int -> t

val partitioned : t -> src:int -> dst:int -> now_us:float -> bool
(** Is the src->dst link cut at this instant? *)

val wire_fault : t -> rng:Rng.t -> src:int -> dst:int -> now_us:float -> Enet.Netsim.fault option
(** Draw this message's fate.  Partition cuts are checked first (they
    consume no randomness); then drop, duplicate and delay draws are
    made in a fixed order so the stream stays aligned across runs. *)

val of_string : string -> (t, string) result
(** Parse a plan spec, a comma-separated key=value list:

    {v
    seed=42,drop=0.3,dup=0.05,delay=0.1:2000,
    part=0+1|2+3@1000:50000,crash=2@3000,crash=1@5000:9000
    v}

    [delay=P:MAXUS] delays a message with probability P by up to MAXUS
    virtual microseconds.  Every probability (drop, dup, P) must lie in
    [0, 1] and MAXUS must be finite and non-negative: [Error] otherwise,
    [nan] included.  [part=A|B@FROM:UNTIL] cuts every link between
    node groups A and B (nodes joined by [+]) during the window.
    [crash=N@T] fail-stops node N at virtual time T;
    [crash=N@T:R] restarts it (empty, amnesiac) at time R. *)

val check_probability : string -> float -> (float, string) result
(** [check_probability what p] is [Ok p] for [p] in [0, 1], else an
    [Error] naming [what]: the range check {!of_string} applies. *)

val to_string : t -> string
(** Round-trips through {!of_string}. *)

val describe : t -> string
(** A one-line human summary for [--stats] output. *)
