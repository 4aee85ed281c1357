(** How a message that cannot be routed finds its object (DESIGN.md §14).

    Without the directory: the forwarding-proxy chain, then Emerald's
    broadcast search.  With it, forwarded invokes also carry their hop
    trail and the hosting node collapses the chain behind them with
    [M_loc_hint]s; every object has a deterministic home shard that
    migrations publish to, and an exhausted chain asks the home before
    the broadcast, which stays the fallback of last resort.  All
    location traffic is produced in deterministic (ascending node)
    order. *)

type mode =
  | Loc_off  (** proxies and the broadcast search: the seed's traffic *)
  | Loc_directory  (** hop trails, chain collapse and the directory *)

type t

val create :
  mode:mode ->
  kernels:Ert.Kernel.t array ->
  down:bool array ->
  bus:Events.bus ->
  transport:Transport.t ->
  send:(src:int -> Mobility.Move.send -> unit) ->
  drop:(Mobility.Marshal.message -> reason:string -> unit) ->
  t
(** [kernels] and [down] are the cluster's node state, read here.
    Probes, lookups and publishes go out through [send]; messages that
    cannot be located are given up through [drop]. *)

val mode : t -> mode

(** {1 Routing} *)

val start_search : t -> asker:int -> Ert.Oid.t -> Mobility.Marshal.message -> unit
(** Probe every live node for the object; the message waits for the
    answer. *)

val lost : t -> Mobility.Marshal.message -> unit
(** A location message was lost: a probe or its answer counts as a
    negative answer, a lookup or its reply falls back to the search. *)

val route :
  t -> node:int -> via:int list -> caller:int -> Ert.Oid.t -> Mobility.Rpc.route ->
  Mobility.Move.send list
(** An invoke that came through the hops [via] was routed at [node]:
    with the directory on, a forwarded invoke extends its hop trail, and
    one that reached the object's host collapses the chain behind it
    (hints for every traversed node and the caller).  An unlocated one
    parks its message at the home shard's lookup (directory) or in the
    broadcast search.  Returns the messages to send. *)

val deliver : t -> dst:int -> src:int -> Mobility.Marshal.message -> unit
(** Handle an [M_locate], [M_located], [M_dir_*] or [M_loc_hint] from
    [src] delivered at [dst]. *)

(** {1 The directory} *)

val register : t -> Ert.Oid.t -> node:int -> at:float -> unit
(** A silent, traffic-free birth registration at the home shard. *)

val publish : t -> dst:int -> Mobility.Marshal.move_payload -> unit
(** A move landed at [dst]: publish its objects' new location to their
    home shards, batched per home. *)

val home : t -> Ert.Oid.t -> int
val entry : t -> Ert.Oid.t -> int option
val stats : t -> int * int * int * int

(** {1 Crash and restart} *)

val crash_searches : t -> int -> unit
(** The searches the node owned die with it; their messages are lost. *)

val crash_shard : t -> int -> unit
(** The node's shard dies; its parked lookups' messages are lost. *)

val restart : t -> int -> unit
(** Rebuild the node's shard from the surviving residents, stamped now. *)

val chain_walk : t -> from:int -> Ert.Oid.t -> int option * int
