(** The machine-independent activation-record and thread-state formats.

    "We invented a new activation record format and used that as the
    machine-independent format.  The new activation record format stored
    all local variables in the activation record rather than in registers"
    (section 3.5).  Values are typed, with no byte order, float format or
    local address in sight.  Program points are bus stop numbers; code is
    named by OID.

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
  mf_slots : int array;
      (** the template slot of each entity live at the stop, in wire
          order (the stop's live list); slot indices are architecture
          independent *)
  mf_tags : Bytes.t;
      (** each live value's {!Ert.Value} wire tag byte
          ([Ert.Value.tag_int], ...), parallel to [mf_slots] *)
  mf_words : int array;
      (** each live value's word, by tag: an int sign-extended, a bool
          0 or 1, a reference its OID image ({!Ert.Oid.intern}), nil 0,
          and a real, string or vector its index in [mf_boxed] *)
  mf_boxed : Ert.Value.t array;
      (** the live reals, strings and vectors, in wire order *)
  mf_self : Ert.Oid.t;  (** the object whose operation this record executes *)
}
(** The live values are words, not one {!Ert.Value.t} per slot, so that
    capture, decoding and rebuilding box nothing for an int, bool or
    reference: the dev profile compiles with [-opaque], so an [int32]
    that crosses a module boundary is boxed, and a frame's slots are
    mostly ints.  A frame writes and reads exactly the bytes and
    conversion charges of a [u16] slot index and {!Ert.Value.write} per
    live value.  The representation is canonical: reading back what
    was written gives a structurally equal frame. *)

val is_boxed_tag : int -> bool
(** A real's, string's or vector's tag: the word indexes [mf_boxed]. *)

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

val write_frame : Enet.Wire.Writer.t -> mi_frame -> unit
val read_frame : Enet.Wire.Reader.t -> mi_frame
val write_segment : Enet.Wire.Writer.t -> mi_segment -> unit
val read_segment : Enet.Wire.Reader.t -> mi_segment
val frame_count : mi_segment -> int
