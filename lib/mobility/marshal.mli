(** Mobility and RPC message formats and their network-format encoding.

    Everything that crosses the simulated Ethernet goes through here, via
    the {!Enet.Wire} codecs, so conversion procedure calls and byte counts
    are accounted exactly as the prototype's hand-written routines were.
    {!encode} writes each message into a fresh buffer and hands it to the
    network as a view; {!decode} reads the view the receiver is given.
    One path serves every tier, and no buffer is reused. *)

type move_object = {
  mo_oid : Ert.Oid.t;
  mo_class : int;
  mo_fields : Ert.Value.t array;  (** field order = template field order *)
  mo_locked : bool;
  mo_waiters : int list;  (** waiting segment ids, monitor-queue order *)
  mo_cond_waiters : int list list;  (** per condition, in queue order *)
}

type move_payload = {
  mp_src : int;
  mp_opt_level : int;
      (** optimization level of the source node's code instance
          ({!Emc.Opt.to_int}) — the move handshake's negotiation datum:
          the receiver compares it against its own instance and routes
          elided-stop landings through bridge fragments.  Level 0 is
          encoded with the historical message tags, so default wire
          streams stay byte-identical. *)
  mp_objects : move_object list;
  mp_segments : Mi_frame.mi_segment list;
}

type message =
  | M_invoke of {
      target : Ert.Oid.t;
      callee_class : int;
      callee_method : int;
      args : Ert.Value.t list;
      reply : Ert.Thread.link;
      thread : int;
      forwards : int;  (** forwarding hops so far *)
    }
  | M_reply of {
      to_seg : int;
      value : Ert.Value.t;
      thread : int;
    }  (** invocation reply or cross-node segment-bottom return *)
  | M_move_req of {
      obj : Ert.Oid.t;
      dest : int;
      forwards : int;
    }  (** [move X to n] where X was not local: forwarded to X's host *)
  | M_move of move_payload
  | M_start_process of {
      obj : Ert.Oid.t;
      forwards : int;
    }
      (** start the object's process section wherever it now lives (it
          moved during [initially]) *)
  | M_locate of { obj : Ert.Oid.t }
      (** location search probe (Emerald's broadcast, one unicast per
          node): "do you host this object?" *)
  | M_located of {
      obj : Ert.Oid.t;
      found : bool;
    }  (** probe answer; the hosting node is the sender *)
  | M_dir_update of { objs : Ert.Oid.t list; node : int; at : float }
      (** batched location publish to a directory home shard: each OID
          in [objs] is now at [node] as of virtual time [at]
          (last-writer-wins at the receiver) *)
  | M_dir_lookup of { obj : Ert.Oid.t }
      (** ask the object's home shard for its last known location; the
          asker is the network-level sender *)
  | M_dir_reply of { obj : Ert.Oid.t; node : int; known : bool }
      (** home shard's answer; [known = false] means the directory has
          no entry and the asker falls back to a broadcast search *)
  | M_loc_hint of { obj : Ert.Oid.t; node : int }
      (** chain-collapse hint: rewrite your forwarding proxy for [obj]
          to point directly at [node] *)
  | M_invoke_via of { via : int list; inv : message }
      (** a forwarded invoke carrying its hop trail; every node that
          forwards it appends itself to [via], and the node that finally
          hosts the target sends each distinct [via] node an
          {!M_loc_hint}, collapsing the chain it walked.  [inv] is
          always an [M_invoke]. *)
  | M_group_move of move_payload
      (** a batched migration of co-located objects and their attached
          threads in one transfer; body layout is identical to [M_move],
          the tag marks it for group accounting at the receiver *)

val encode :
  ?blit:bool ->
  impl:Enet.Wire.impl ->
  stats:Enet.Conversion_stats.t ->
  message ->
  Enet.Wire.view
(** Writes the message into a fresh buffer and hands it off as a view
    ({!Enet.Wire.Writer.handoff}), ready for {!Enet.Netsim.send}.  Every
    tier writes the same bytes through the same record writers; [impl]
    only changes how their datums are charged.  With [?blit] (valid only
    between layout-matched architectures, see {!Isa.Arch.same_layout})
    the writer is batched ({!Enet.Wire.Writer.batch}): the same bytes,
    accounted as one conversion call per move-payload record — the move
    header, each object, each frame, and each segment's scaffold and
    trailing options.
    @raise Invalid_argument for a count, index or string too long for
    its u16 prefix. *)

val decode :
  ?blit:bool ->
  impl:Enet.Wire.impl ->
  stats:Enet.Conversion_stats.t ->
  Enet.Wire.view ->
  message

val describe : message -> string
