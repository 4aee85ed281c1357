(** Virtual-time cost model for the mobility protocols.

    All costs are in {e abstract instructions}, charged to the node doing
    the work at its MIPS rating ({!Ert.Kernel.charge_insns}).  Together
    with the network simulation these constants put the Table 1
    reproduction on the right scale; the {e relative} behaviour (who is
    slower, the enhanced/original ratio) comes from the counted work —
    conversion procedure calls actually made, activation records actually
    translated, bytes actually sent — not from these constants.

    Calibration targets (section 3.6 of the paper):
    - original homogeneous SPARC-SPARC thread round trip = 40 ms,
    - enhanced = 63 ms (57% slower), dominated by the naive conversion
      routines at 1-2 procedure calls per byte. *)

val protocol_fixed_us : float
(** Fixed (CPU-speed-independent) cost of handling one message at one
    endpoint: DMA, interrupt latency, timer granularity, wire access.
    The 1995 measurements do not scale linearly with CPU speed — the
    VAXstation is 79 ms where the SPARC is 40 ms despite a ~7x MIPS gap —
    so the model needs this term. *)

val protocol_send_insns : int
(** CPU cost of sending one mobility/RPC message: kernel entry, protocol
    stack, buffer management. *)

val protocol_recv_insns : int

val per_conversion_call_insns : int
(** Cost of one conversion procedure call of the naive routines. *)

val frame_translate_insns : int
(** Translating one activation record between machine-dependent and
    machine-independent form (enhanced system only). *)

val relocation_insns_per_frame : int
(** The destination-side relocation pass of section 3.5. *)

val object_translate_insns : int
(** Per-object marshalling overhead beyond per-field conversion. *)

val original_copy_insns_per_byte : int
(** The homogeneous system copies data without format conversion. *)

val code_fetch_insns : int
(** Fetching a code object from the shared repository (the NFS disk
    illusion of section 3.4). *)

val invoke_dispatch_insns : int
(** Setting up or completing a remote invocation at either end. *)

val gc_collect_insns : live:int -> int
(** One stop-the-world collection that left [live] blocks marked: a
    fixed part plus a per-live-block trace charge, in one pause. *)

val gc_cycle_open_insns : int
(** Opening an incremental cycle: the heap snapshot and the barrier. *)

val gc_increment_insns : scanned:int -> int
(** One increment of an incremental cycle that scanned [scanned] pointer
    slots (or blocks, when sweeping). *)
