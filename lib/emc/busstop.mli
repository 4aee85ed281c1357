(** Per-architecture bus-stop tables and frame geometry.

    This is the machine-dependent half of the compiler-generated mobility
    information: the bidirectional mapping between program-counter values
    and bus-stop numbers (section 3.3), plus, per stop, the stack-pointer
    geometry needed to rebuild a suspended activation record, and per
    operation, the frame layout mapping template slots to frame-pointer
    offsets.

    Stop numbers and counts are identical across architectures (they come
    from the IR); only the PC values and offsets differ.  Exit-only stops
    (the VAX REMQUE points) have a PC but are absent from the PC-to-stop
    direction, exactly as in section 3.3 of the paper. *)

type entry = {
  be_id : int;  (** class-global bus-stop number *)
  be_op : int;  (** method index *)
  be_pc : int;  (** canonical visible PC / resume point (byte offset) *)
  be_alt_pc : int option;
      (** remote-path [Syscall invoke] PC of an invocation stop — a second
          PC naming the same program point *)
  be_exit_only : bool;
  be_elided : bool;
      (** the optimizer removed this stop's [Poll] instruction from this
          instance (-O2 loop-poll elision): [be_pc] is the loop's
          back-branch, a valid state-equivalence point, but no instruction
          here can suspend — a thread migrating in while parked at this
          stop resumes through a dynamically generated bridge fragment *)
  be_sp_depth : int;  (** bytes of stack below FP while suspended here *)
  be_pop_bytes : int;
      (** outgoing-argument bytes the kernel pops when completing the
          system call (VAX/M68k push arguments; SPARC passes in registers) *)
  be_kind : Ir.stop_kind;
}

type frame_info = {
  fr_op : int;
  fr_frame_size : int;  (** bytes reserved below FP by the prologue *)
  fr_slot_offsets : int array;  (** template slot -> FP-relative offset *)
  fr_fixed_sp_depth : int;  (** SP below FP between stops (no pushes) *)
}

type table = {
  bt_arch_id : string;
  bt_entries : entry array;  (** dense, indexed by stop id *)
  bt_pcs : int array;  (** the visible PCs, ascending *)
  bt_pc_stops : int array;  (** the stop id of each of [bt_pcs] *)
  bt_frames : frame_info array;  (** indexed by method index *)
}

val make : arch_id:string -> entries:entry array -> frames:frame_info array -> table
(** Builds the PC index (excluding exit-only and elided stops, including
    alternate PCs), sized by stops: one sorted array of PCs searched by
    bisection.
    @raise Invalid_argument if entries are not dense by id, or if two
    visible PCs coincide. *)

val id_of_pc : table -> int -> int
(** The id of the stop whose visible PC (a byte offset) is [pc], or -1;
    allocates nothing. *)

val of_pc : table -> int -> entry option
(** {!id_of_pc}'s stop. *)

val kind_name : Ir.stop_kind -> string
(** The stop kind as {!pp} and the listings print it. *)

val by_id : table -> int -> entry
val count : table -> int
val pp : Format.formatter -> table -> unit
