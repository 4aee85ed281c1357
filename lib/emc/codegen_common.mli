(** Code-generation driver, shared across the three instruction-set
    families.

    The driver walks the IR, manages labels and a simple local register
    allocator (temporaries live in scratch registers between bus stops and
    are flushed to their template slots across stops and block edges — the
    discipline that lets one template per operation suffice, section 3.2),
    and records the bus-stop table entries as code is emitted.  All
    instruction selection, frame geometry and calling-convention detail
    lives in the per-family modules ({!Codegen_vax}, {!Codegen_m68k},
    {!Codegen_sparc}) implementing {!FAMILY}. *)

module Emitter : sig
  type t

  val create : Isa.Arch.family -> t
  val family : t -> Isa.Arch.family
  val emit : t -> Isa.Insn.t -> int
  val next_index : t -> int
  val fresh_label : t -> int
  val place : t -> int -> unit
  val branch : t -> Isa.Insn.cmp option -> int -> unit
  (** conditional or unconditional branch to a label, fixed up later *)

  val optimize :
    t ->
    protected_idx:int list ->
    pass:(protected:bool array -> Isa.Insn.t array -> Isa.Insn.t array * int array) ->
    int ->
    int
  (** Run one between-bus-stops optimizer pass ({!Peephole}, {!Opt2}) over
      the emitted buffer, fixing labels and branch fixups in place.
      [protected_idx] lists instruction indexes that must survive (bus
      stops, method entries); the returned function remaps old indexes to
      new ones. *)

  val finalize : t -> Isa.Insn.t array
  (** Resolve all label fixups to byte offsets. *)
end

type loc =
  | Lreg of Isa.Reg.t
  | Limm of int32
  | Lslot of int  (** FP-relative byte offset *)

type mon_exit_info = {
  me_dequeue_idx : int;  (** instruction index of the dequeue stop *)
  me_dequeue_exit_only : bool;
  me_dequeue_args : int;  (** words pushed for the dequeue (VAX: 0) *)
  me_wake_idx : int;
  me_wake_args : int;
}

module type FAMILY = sig
  val family : Isa.Arch.family

  (* frame geometry *)
  val frame_size : n_slots:int -> n_scratch:int -> int
  val slot_offset : n_slots:int -> int -> int
  val scratch_offset : n_slots:int -> n_scratch:int -> int -> int
  val fixed_sp_depth : frame_size:int -> int
  val arg_push_bytes : int -> int

  val retval_reg : Isa.Reg.t

  (* emission *)
  val prologue : Emitter.t -> frame_size:int -> param_offsets:int array -> unit
  val epilogue : Emitter.t -> result_offset:int option -> unit
  val load : Emitter.t -> dst:Isa.Reg.t -> src:loc -> unit
  val store : Emitter.t -> src:Isa.Reg.t -> off:int -> unit
  val store_loc : Emitter.t -> src:loc -> off:int -> scratch:(unit -> Isa.Reg.t) -> unit
  val load_mem : Emitter.t -> dst:Isa.Reg.t -> base:Isa.Reg.t -> disp:int -> unit
  val store_mem : Emitter.t -> src:Isa.Reg.t -> base:Isa.Reg.t -> disp:int -> unit

  val bin :
    Emitter.t ->
    Isa.Insn.binop ->
    ty:Ir.arith_ty ->
    a:loc ->
    b:loc ->
    dst:Isa.Reg.t ->
    scratch:(unit -> Isa.Reg.t) ->
    unit

  val neg :
    Emitter.t -> ty:Ir.arith_ty -> a:loc -> dst:Isa.Reg.t -> scratch:(unit -> Isa.Reg.t) -> unit

  val cvt_int_real :
    Emitter.t -> a:loc -> dst:Isa.Reg.t -> scratch:(unit -> Isa.Reg.t) -> unit

  val cmp :
    Emitter.t -> ty:Ir.arith_ty -> a:loc -> b:loc -> scratch:(unit -> Isa.Reg.t) -> unit

  val invoke :
    Emitter.t ->
    target:loc ->
    args:loc list ->
    method_index:int ->
    scratch:(unit -> Isa.Reg.t) ->
    int * int
  (** Emit the full invocation sequence (argument passing, residency test,
      remote-path system call, dispatch-table call, argument pop).
      Returns [(stop_pc_index, remote_syscall_index)]. *)

  val syscall : Emitter.t -> nr:int -> args:loc list -> scratch:(unit -> Isa.Reg.t) -> int
  (** Emit a system call; returns the [Syscall] instruction index. *)

  val mon_exit : Emitter.t -> self:loc -> scratch:(unit -> Isa.Reg.t) -> mon_exit_info
  (** Emit the monitor-exit sequence: dequeue a waiter (REMQUE on the VAX,
      a system call elsewhere), wake it if there is one, otherwise release
      the lock. *)
end

module Make (F : FAMILY) : sig
  val compile_class_at :
    ?level:Opt.level ->
    arch:Isa.Arch.t ->
    code_oid:int32 ->
    Ir.class_ir ->
    Template.class_t ->
    Isa.Code.t * Busstop.table * Opt.edit list
  (** Compile one code instance of the class at the given optimization
      level (default [O0]).  The returned code is tagged with the level
      ({!Isa.Code.t.code_inst}); the edit list records, in application
      order, every optimizer transformation with the pass name and the
      index into that pass's input buffer ([emdis --opt-diff] provenance). *)
end
