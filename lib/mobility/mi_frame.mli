(** The machine-independent activation-record and thread-state formats.

    "We invented a new activation record format and used that as the
    machine-independent format.  The new activation record format stored
    all local variables in the activation record rather than in registers"
    (section 3.5).  Values are {!Ert.Value.t}s — typed, with no byte
    order, float format or local address in sight.  Program points are bus
    stop numbers; code is named by OID.

    A machine-independent {e segment} is a run of activation records
    (youngest first, the order they are translated in) plus the scheduling
    state needed to resume the thread on the destination: pending system
    call completions, awaited replies, monitor-queue membership — or, for
    a segment that never executed its first instruction, the spawn record
    itself. *)

type mi_frame = {
  mf_class : int;  (** class index (the code object's identity) *)
  mf_code_oid : int32;
  mf_method : int;
  mf_stop : int;  (** class-global bus-stop number where suspended *)
  mf_slots : (int * Ert.Value.t) array;
      (** template-slot index -> value, in wire order (the stop's live
          list), for the entities live at the stop; slot indices are
          architecture independent *)
  mf_self : Ert.Oid.t;  (** the object whose operation this record executes *)
}

type mi_status =
  | Ms_parked of Ert.Value.t Isa.Suspend.t
      (** only wire-encodable suspensions (see the {!Isa.Suspend} invariant
          table) appear here; writing a CPU-only one fails *)
  | Ms_awaiting_reply of int  (** stop id *)
  | Ms_blocked_monitor of {
      mon : Ert.Oid.t;
      in_queue : bool;
      cond : int;  (** -1: entry queue; otherwise a condition queue *)
      deadline : float option;
          (** a timed wait's absolute expiry in virtual microseconds *)
    }

type mi_segment = {
  ms_seg_id : int;
  ms_thread : int;
  ms_status : mi_status;
  ms_frames : mi_frame list;  (** youngest first *)
  ms_link : Ert.Thread.link option;
  ms_result_type : Emc.Ast.typ option;
  ms_spawn : Ert.Thread.spawn_info option;
      (** present (with [ms_frames = \[\]]) for never-executed segments *)
}

(** One writer and one reader per record.  Each frame, the segment
    scaffold before the frames and the trailing options are records of a
    batched codec ({!Enet.Wire.Writer.batch}): one conversion call each. *)

val write_segment : Enet.Wire.Writer.t -> mi_segment -> unit
val read_segment : Enet.Wire.Reader.t -> mi_segment
val frame_count : mi_segment -> int
val pp_segment : Format.formatter -> mi_segment -> unit
