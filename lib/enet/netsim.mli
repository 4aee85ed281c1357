(** Discrete-event simulation of the 10 Mbit/s Ethernet of Figure 1.

    Messages are charged transmission time on a shared medium (the
    segment is busy while a frame is on the wire) plus a fixed
    latency covering media access and interface handling.  Times are
    virtual microseconds.

    {b Delivery order.}  On a reliable wire (no injector installed),
    delivery between any pair of nodes is FIFO: the shared medium
    serialises transmissions, so arrival times are non-decreasing in
    send order.  With a fault injector, that guarantee is deliberately
    broken — a delayed message or a duplicate copy can overtake or trail
    other traffic — and delivery is ordered by [(arrival time, seq)]
    instead.  (Earlier revisions documented FIFO unconditionally; that
    was only true because nothing ever perturbed the wire.)

    {b Payloads.}  A message carries a {!Wire.view} of the sender's
    encode buffer ({!Wire.Writer.handoff}), delivered without a copy; a
    duplicate copy shares it.  Nothing writes to the buffer after the
    send, and nothing recycles it. *)

type config = {
  latency_us : float;  (** per-message fixed delay *)
  bandwidth_mbit_s : float;
  frame_overhead_bytes : int;  (** per-message header/trailer bytes on the wire *)
}

val default_config : config
(** 10 Mbit/s, 300 us latency, 58 bytes of Ethernet+IP+UDP framing. *)

type message = {
  msg_src : int;
  msg_dst : int;
  msg_payload : Wire.view;
      (** a length-delimited window onto the sender's encode buffer,
          shared by a duplicate copy; only ever read *)
  msg_sent_at : float;
  msg_arrives_at : float;
  msg_seq : int;
  msg_span : (int * int * float) option;
      (** host-side observability tag — the sender's move-span identity
          [(node, seq, start_us)] riding with the message so the
          receiver can close the span.  Never serialised: zero wire
          bytes, zero effect on timing; [None] when tracing is off. *)
}

type fault =
  | Fault_drop  (** the frame is transmitted, then lost *)
  | Fault_dup of float  (** a duplicate copy arrives [extra] us later *)
  | Fault_delay of float  (** delivery is delayed by [extra] us *)

type t

val create : ?config:config -> n_nodes:int -> unit -> t
val config : t -> config

val set_on_arrival : t -> (dst:int -> at:float -> unit) -> unit
(** Register an arrival listener: called once per enqueued delivery
    (including duplicate copies, and at the {e delayed} arrival time of
    a delayed message), so an event engine can schedule deliveries
    without polling every node's queue. *)

val set_injector : t -> (src:int -> dst:int -> now_us:float -> fault option) -> unit
(** Install a fault injector, consulted once per {!send} at the wire:
    its verdict drops, duplicates or delays the frame.  Determinism is
    the injector's contract — given the same call sequence it must
    return the same verdicts (see [Fault.Plan]). *)

val set_on_fault : t -> (src:int -> dst:int -> fault -> unit) -> unit
(** Observe injected faults (for trace/metrics emission).  Fires after
    the fault is applied, before {!send} returns. *)

val send :
  ?span:int * int * float ->
  t ->
  now_us:float ->
  src:int ->
  dst:int ->
  payload:Wire.view ->
  float
(** Queue a message; returns its (possibly fault-delayed) arrival time.
    A dropped message still consumes medium time — the frame was on the
    wire — and the returned time is when it would have arrived.
    Zero-copy: the view is delivered as handed in (a duplicate copy
    shares it), so its buffer must not be written afterwards. *)

val next_arrival_at : t -> dst:int -> float option
(** Earliest pending arrival time for a node, if any. *)

val receive : t -> dst:int -> now_us:float -> message option
(** Pop the pending message for [dst] with the smallest
    [(arrival, seq)] whose arrival time is at most [now_us]. *)

val pending : t -> int

val messages_sent : t -> int
val bytes_sent : t -> int
(** Payload plus framing bytes across all messages. *)

val messages_dropped : t -> int
(** Frames lost to the injector (partitions count here too). *)

val messages_duplicated : t -> int
val messages_delayed : t -> int
