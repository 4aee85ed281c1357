(** How a protocol message becomes frames on the wire (DESIGN.md §7).

    The transport owns the codec call and its conversion charging, the
    wire tier's decisions (which pairs blit, and the translation pass a
    blit pair skips), the two framings — bare, or the sequence-numbered
    envelope a non-trivial fault plan installs, with acks, duplicate
    suppression, bounded exponential-backoff retransmission and a single
    loss report — the drain at a dead interface, and the [Ev_msg_*],
    [Ev_blit], [Ev_ack], [Ev_retransmit], [Ev_msg_dup] and [Ev_fault]
    events.

    Retransmission schedule: the first transmission at [t], then
    [t + 2], [+ 6], [+ 14], [+ 30], [+ 62], [+ 94] and [+ 126] ms (a
    2 ms timeout doubling to a 32 ms cap); with no ack by [+ 158] ms the
    loss is reported once, through [lost]. *)

type protocol =
  | Enhanced  (** machine-independent conversion on every transfer *)
  | Original  (** raw copying: the homogeneous system *)

type t

val create :
  protocol:protocol ->
  wire_impl:Enet.Wire.impl ->
  faults:Fault.Plan.t ->
  net:Enet.Netsim.t ->
  engine:Engine.t ->
  bus:Events.bus ->
  kernels:Ert.Kernel.t array ->
  down:bool array ->
  lost:(Mobility.Marshal.message -> reason:string -> unit) ->
  deliver:(dst:int -> Enet.Netsim.message -> Enet.Wire.view -> unit) ->
  t
(** [kernels] and [down] are the cluster's node state, read here and
    written only by the cluster.  A non-trivial [faults] plan switches
    on the envelope and installs the plan's wire injector on [net].
    [lost] is called once for every message the transport gives up on;
    [deliver] with every frame's payload, exactly once per message. *)

val protocol : t -> protocol

val enveloped : t -> bool
(** Whether messages travel in the retry envelope.  Only then can a copy
    of a message outlive the abort of the thread it carries. *)

val reachable : t -> int -> bool
(** Whether a message to the node is worth sending: always under the
    envelope (the node may restart within the retry budget), and only
    to a live interface on the bare wire. *)

val send :
  t -> src:int -> dst:int -> root:Events.root option -> Mobility.Marshal.message -> unit
(** Charge the sender's translation pass, encode, charge the conversion,
    frame and transmit.  The codec runs the configured tier, or [Plan]
    under the original protocol.  Under the blit tier a move between a
    pair with the same layout ({!Isa.Arch.same_layout}) and the same
    code instance is encoded batched and skips translation, and every
    move publishes an [Ev_blit].  Under [root] the ["translate"],
    ["marshal"] and ["transfer"] phase spans are published. *)

val refuse : t -> src:int -> dst:int -> Mobility.Marshal.message -> unit
(** Report a message to an unreachable node lost without sending it. *)

val decode : t -> src:int -> dst:int -> Enet.Wire.view -> Mobility.Marshal.message
(** Decode a payload from [src] delivered at [dst], charge the
    conversion and recycle the payload's buffer.  The receiver evaluates
    the sender's blit predicate itself, so no capability bit rides on
    the wire. *)

val translate : t -> src:int -> dst:int -> Mobility.Marshal.message -> unit
(** Charge [dst] the per-object and per-frame translation pass of a
    decoded move from [src]; nothing for other messages, under the
    original protocol, or for a blit pair. *)

val delivered : t -> dst:int -> Mobility.Marshal.message -> unit
(** Publish the delivery of a decoded message. *)

val receive : t -> dst:int -> now:float -> unit
(** Take the node's next frame due at [now] off the wire: ack, suppress
    or drain it, or hand its payload to [deliver]. *)

val on_timer : t -> int -> bool
(** The node's retransmission timer fired: resend every due frame and
    report those out of attempts lost.  [false] when nothing was due (a
    stale or superseded timer). *)

val crash : t -> int -> unit
(** The node's retry state dies with it: every message it had not seen
    acknowledged is reported lost, in sequence order. *)

val restart : t -> int -> unit
(** A rebooted node remembers no delivered messages. *)
