(** Translation of thread state between machine-dependent and
    machine-independent formats — the core mechanism of the paper.

    Outbound ({!Ert.Frame_walk.walk} + {!capture_frame}): walk a suspended
    segment's activation records from the youngest down, using the frame
    pointers, the per-architecture frame geometry, and the bus-stop tables
    to name each suspension point machine-independently; extract the live
    entities' values through the per-stop template (sections 3.3, 3.5).

    Inbound ({!rebuild_segment}): translate machine-independent activation
    records back into native frames for the destination architecture —
    youngest first, into provisional positions, followed by the
    relocation pass the paper describes ("we could not know beforehand the
    size of the machine-dependent activation record stack ... we therefore
    had to do a relocation of all activation records within the allocated
    stack space", section 3.5) — then reconstruct the calling-convention
    linkage (saved frame pointers, return addresses, SPARC register-window
    spill areas) from the bus-stop geometry. *)

val capture_frame : Ert.Kernel.t -> Ert.Frame_walk.frame_rec -> Mi_frame.mi_frame

val status_to_mi : Ert.Kernel.t -> Ert.Thread.segment -> Mi_frame.mi_status
(** Fails on a running or dead segment.  A parked segment's
    {!Ert.Thread.resume} passes through unconverted. *)

val rebuild_segment : Ert.Kernel.t -> Mi_frame.mi_segment -> Ert.Thread.segment
(** Builds the native stack, registers the segment with the kernel and
    enqueues it if ready.  Blocked-on-monitor segments are installed with
    an empty queue linkage; the caller re-enqueues them in the marshalled
    queue order. *)

val patch_segment_bottom :
  Ert.Kernel.t -> Ert.Thread.segment -> Ert.Frame_walk.frame_rec list -> unit
(** Make the given (in-place, staying) frames a well-formed segment whose
    bottom returns to the kernel: writes the sentinel return address into
    the bottom frame's linkage cells. *)

val make_ctx_for_top :
  Ert.Kernel.t -> top:Ert.Frame_walk.frame_rec -> below_resume:int -> Isa.Machine.ctx
(** Fresh register context for a segment whose (staying, in-place) top
    frame is [top]; [below_resume] is the absolute resume PC of the frame
    below it in the same segment, or 0 when [top] is also the bottom. *)
