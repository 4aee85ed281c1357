(** The typed trace/metrics bus.

    Every observable simulation action — kernel scheduling slices, message
    traffic, migrations, conversion work, collections, failures — is
    published on the bus as a structured event.  Subscribers get the typed
    value; per-node counters are maintained automatically; and
    {!legacy_string} renders the exact line the seed's [(string -> unit)]
    trace hook used to print, so existing trace consumers survive the
    refactor unchanged. *)

type t =
  | Ev_step of { node : int; time : float }
      (** one kernel scheduling slice ran *)
  | Ev_msg_send of {
      time : float;
      src : int;
      dst : int;
      desc : string;  (** [Mobility.Marshal.describe] of the message *)
      bytes : int;  (** encoded payload bytes *)
      arrives : float;
    }
  | Ev_msg_deliver of { time : float; node : int; desc : string }
  | Ev_msg_lost of { src : int; dst : int; desc : string }
      (** refused at send time: the destination is down *)
  | Ev_msg_drop of { node : int; desc : string }
      (** drained at a dead interface after transit *)
  | Ev_move_start of { time : float; node : int; obj : Ert.Oid.t; dest : int }
  | Ev_evict of { time : float; node : int; seg_id : int; dest : int }
      (** a forced-eviction trap fired: the named segment was captured at
          its next bus stop and is being shipped to [dest] *)
  | Ev_move_finish of {
      time : float;
      node : int;  (** the destination *)
      objects : int;
      segments : int;
      frames : int;
    }
  | Ev_conversion of { node : int; calls : int; bytes : int }
      (** marshalling work performed while encoding or decoding *)
  | Ev_gc of { time : float; node : int; swept : int; live : int; bytes_freed : int }
  | Ev_gc_phase of {
      time : float;
      node : int;
      phase : string;  (** ["gc_roots"], ["gc_mark"] or ["gc_sweep"] *)
      scanned : int;  (** pointer slots scanned by this increment *)
      pause_us : float;  (** virtual time charged for this increment *)
    }
      (** one bounded increment of an incremental collection cycle ran.
          Fires only under [Gc_incremental], so legacy (stop-the-world)
          traces are unaffected; the cycle's completion still emits the
          classic {!Ev_gc} line. *)
  | Ev_crash of { node : int }
  | Ev_restart of { node : int }
      (** a crash window closed: the node reboots empty (fault plans) *)
  | Ev_thread_lost of { thread : Ert.Thread.tid; reason : string }
  | Ev_search_start of { node : int; obj : Ert.Oid.t; probes : int }
  | Ev_search_found of { obj : Ert.Oid.t; node : int }
  | Ev_search_failed of { obj : Ert.Oid.t }
  | Ev_fault of { time : float; src : int; dst : int; kind : string }
      (** the injector perturbed a frame on the wire (drop/dup/delay) *)
  | Ev_msg_dup of { node : int; src : int; seq : int }
      (** a duplicate protocol message was suppressed at the receiver *)
  | Ev_retransmit of { node : int; dst : int; seq : int; attempt : int }
      (** an unacknowledged message was retransmitted *)
  | Ev_ack of { node : int; seq : int }
      (** an acknowledgement was processed at the original sender *)
  | Ev_pool of { node : int; hits : int; misses : int; copies_saved : int }
      (** encode-buffer pool activity during one en/decode; [copies_saved]
          counts pooled handoffs that avoided a payload copy *)
  | Ev_span of Obs.Span.t
      (** a closed migration/RPC phase span (virtual-time interval); only
          emitted when span tracing is enabled on the cluster *)
  | Ev_dir_update of { node : int; obj : Ert.Oid.t; loc : int; applied : bool }
      (** the directory shard at [node] processed a location update;
          [applied = false] means it was stale and dropped *)
  | Ev_dir_lookup of { node : int; obj : Ert.Oid.t; found : bool }
      (** the directory shard at [node] answered a lookup *)
  | Ev_locate of { node : int; obj : Ert.Oid.t; hops : int }
      (** an invoke found its target at [node] after [hops] forwarding
          hops (0 = the first send landed on the object's host) *)
  | Ev_collapse of { node : int; obj : Ert.Oid.t; loc : int }
      (** a location hint rewrote [node]'s proxy for [obj] to point
          directly at [loc], collapsing the forwarding chain *)
  | Ev_group_move of {
      time : float;
      node : int;
      dest : int;
      objects : int;
      segments : int;
    }
      (** a batched group migration left [node]: [objects] co-located
          objects and their [segments] attached threads in one transfer *)
  | Ev_blit of { node : int; dest : int; skipped : bool }
      (** a move payload left [node] under the [blit] codec tier:
          [skipped = true] when the pair had the same layout and code
          instance and the translate/rebuild passes were skipped at
          both ends, [false] when the pair fell back to the per-datum
          path.  Fires only under the blit wire tier, so legacy traces
          are unaffected. *)
  | Ev_bridge of {
      time : float;
      node : int;  (** the destination *)
      count : int;
      src_level : int;
      dst_level : int;
    }
      (** a landed move resumed [count] threads through compiled bridge
          fragments: their parked bus stops have no exact correspondent
          in this node's code instance ([dst_level], vs. the source's
          [src_level]).  Fires only when nodes run differently-optimized
          instances, so legacy traces are unaffected. *)

val legacy_string : t -> string option
(** The seed trace hook's line for this event; [None] for events the seed
    never printed (steps, move completion, conversion accounting). *)

val to_string : t -> string
(** A line for every event (legacy format where one exists). *)

(** {1 Per-node counters} *)

type counters = {
  mutable c_steps : int;
  mutable c_sent : int;  (** messages sent from this node *)
  mutable c_delivered : int;  (** messages delivered to this node *)
  mutable c_lost : int;  (** messages lost at or addressed to this node *)
  mutable c_moves_out : int;  (** migrations initiated here *)
  mutable c_moves_in : int;  (** migrations landed here *)
  mutable c_evictions : int;  (** forced evictions fired on this node *)
  mutable c_conv_calls : int;
  mutable c_conv_bytes : int;
  mutable c_collections : int;
  mutable c_gc_bytes_freed : int;
  mutable c_gc_increments : int;  (** incremental-GC increments run here *)
  mutable c_searches : int;  (** broadcast location searches started here *)
  mutable c_faults : int;  (** wire faults injected on frames this node sent *)
  mutable c_dups_suppressed : int;  (** duplicates suppressed at this receiver *)
  mutable c_retransmits : int;  (** retransmissions sent from this node *)
  mutable c_acks : int;  (** acknowledgements processed at this node *)
  mutable c_plan_compiles : int;
      (** no longer incremented: the compiled conversion plans it counted
          are deleted (DESIGN.md §8); kept because [bench/perf] reads it *)
  mutable c_plan_hits : int;  (** no longer incremented, as [c_plan_compiles] *)
  mutable c_pool_hits : int;  (** encode buffers reused from the pool *)
  mutable c_pool_misses : int;  (** encode buffers freshly allocated *)
  mutable c_copies_saved : int;  (** payload copies avoided by pooled handoff *)
  mutable c_dir_updates : int;  (** location updates processed by this shard *)
  mutable c_dir_lookups : int;  (** directory lookups answered by this shard *)
  mutable c_locates : int;  (** invokes that found their target on this node *)
  mutable c_locate_hops : int;  (** forwarding hops those invokes took *)
  mutable c_collapses : int;  (** proxy chains collapsed on this node *)
  mutable c_group_moves : int;  (** group migrations initiated here *)
  mutable c_group_objects : int;  (** objects shipped in those groups *)
  mutable c_blit_skips : int;
      (** outgoing moves that took the common-layout blit fast path *)
  mutable c_blit_fallbacks : int;
      (** blit-tier moves whose pair mismatched: per-datum path used *)
  mutable c_bridged : int;
      (** arriving threads this node resumed through a bridge fragment *)
}

(** {1 The bus} *)

type bus

val create_bus : n_nodes:int -> bus
val subscribe : bus -> (t -> unit) -> unit
(** Subscribers are called in subscription order on every event. *)

val has_subscribers : bus -> bool

val emit : bus -> t -> unit
(** Update counters and notify subscribers. *)

val emit_step : bus -> node:int -> time:float -> unit
(** [emit bus (Ev_step {node; time})], but allocation-free when there
    are no subscribers — it runs once per scheduling slice. *)

type msg_count =
  | Msg_sent
  | Msg_delivered
  | Msg_lost

val count_msg : bus -> node:int -> msg_count -> unit
(** Bump the counter an [Ev_msg_*] event at [node] would bump, without the
    event.  Message events carry a [Mobility.Marshal.describe] string, so
    the transport builds them only when someone listens and counts through
    this otherwise. *)

(** {1 Spans} (DESIGN.md §12): ids are (node, per-node counter) pairs. *)

val enable_spans : bus -> unit
val spans_on : bus -> bool
val span_id : bus -> int -> Obs.Span.id

val emit_span :
  bus -> node:int -> ?parent:Obs.Span.id -> ?bytes:int -> pair:string ->
  name:string -> t0:float -> t1:float -> unit -> unit
(** Allocate an id on [node] and publish the closed span. *)

val arch_pair : Isa.Arch.t -> Isa.Arch.t -> string

(** A move's root span while it is open at the source. *)
type root = { root_id : Obs.Span.id; root_t0 : float; root_pair : string }

val span_leg :
  bus -> root option -> node:int -> bytes:int -> name:string -> t0:float -> t1:float -> unit
(** Publish a phase of the move under [root]; without one, a no-op that
    allocates nothing. *)

val counters : bus -> int -> counters
val n_nodes : bus -> int

val total : bus -> (counters -> int) -> int
(** Sum a counter field across all nodes. *)
