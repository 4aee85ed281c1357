(** The virtual CPU: executes native code for one thread context.

    The interpreter plays the role of the processor.  It runs until the
    code itself transfers control to the kernel — at a [Syscall]
    instruction, at a loop-bottom [Poll] when the kernel has requested
    control, or when a return reaches the bottom of a stack segment —
    exactly the control-transfer discipline of the original Emerald
    (section 3.2): the runtime system never preempts a thread, so the only
    program-counter values it observes are bus stops. *)

type ctx = {
  arch : Arch.t;
  regs : int array;
      (** the register file, each register a sign-extended 32-bit value
          (see {!sx}) in an untagged [int], so register traffic allocates
          nothing; only float operations convert to [int32], at the
          {!Float_format} edge *)
  mutable pc : int;
  mutable cc : int;  (** condition codes, abstracted to a comparison sign *)
  mutable poll_requested : bool;
  mutable skip_poll : bool;
      (** pass the next poll unconditionally: set by the kernel when
          resuming a thread parked at a loop-bottom poll, so the same poll
          does not fire again before any progress is made *)
  mutable stack_limit : int;
  mutable cycles : int;  (** accumulated clock cycles *)
  mutable insns : int;  (** accumulated instruction count *)
}

type trap =
  | Div_zero
  | Nil_deref
  | Mem_fault of int
  | Float_reserved of string
  | Stack_overflow
  | Bad_pc of int
  | Bad_insn of string  (** instruction invalid for this family *)

(** Why native code handed control back to the kernel.  The kernel
    consumes a stop at once (it dispatches the call, finishes the bottom
    return or reports the trap); how a parked segment later resumes is
    the runtime's own record ({!Ert.Thread.resume}), and only that
    travels. *)
type stop =
  | Poll  (** at a [Poll] with a pending kernel request; PC at the poll *)
  | Syscall of int
      (** at a [Syscall n]; the context PC is left at the instruction *)
  | Bottom_return
      (** a return popped the sentinel return address 0: the caller's
          activation record lives in another stack segment, possibly on
          another node *)
  | Halt
  | Trap of trap
  | Fuel  (** fuel exhausted; under a quantum this is plain preemption *)

exception Trapped of trap
(** Raised by the execution primitives below on a machine trap; [run]
    (and {!Dispatch.run}) catch it at the slice boundary and return
    [Trap].  Exposed so the dispatch engine can reuse the exact
    primitives — and therefore the exact trap behaviour — of the
    fetch/decode interpreter. *)

val create_ctx : Arch.t -> ctx

val sx : int -> int
(** Renormalise to the register file's domain: keep the low 32 bits,
    sign-extended.  Wrap-around, [min_int32] negation and division all
    agree bit for bit with [Int32] arithmetic once renormalised. *)

(** {1 Registers}

    The [int32] accessors serve the kernel, capture/translate and the
    fetch/decode loop; the [int] accessors are the same registers without
    the boxing.  Reads of SPARC %g0 give 0 and writes to it are dropped;
    writes renormalise with {!sx}. *)

val reg : ctx -> Reg.t -> int32
val set_reg : ctx -> Reg.t -> int32 -> unit
val reg_int : ctx -> Reg.t -> int
val set_reg_int : ctx -> Reg.t -> int -> unit
val sp : ctx -> int
val set_sp : ctx -> int -> unit
val fp : ctx -> int
val set_fp : ctx -> int -> unit

(** {1 Execution primitives}

    The building blocks of the interpreter loop, shared with the
    dispatch engine ({!Dispatch}) so both execution paths have
    identical operand, arithmetic, trap and stack semantics by
    construction.  Memory words travel as sign-extended [int]s. *)

val addr_of : int -> int
(** The address a register value names; traps [Nil_deref] on 0. *)

val load_int : Memory.t -> int -> int
val store_int : Memory.t -> int -> int -> unit
val int_binop : Insn.binop -> int32 -> int32 -> int32
val float_binop : Float_format.t -> Insn.binop -> int32 -> int32 -> int32
val eval_cc : Insn.cmp -> int -> bool
val push_int : ctx -> Memory.t -> int -> unit
val pop_int : ctx -> Memory.t -> int
val check_stack : ctx -> unit
val sparc_save : ctx -> Memory.t -> int -> unit
val sparc_restore : ctx -> Memory.t -> unit

val run : ctx -> mem:Memory.t -> text:Text.t -> fuel:int -> stop
(** Execute instructions until a stop.  [fuel] bounds the number of
    instructions as a safety net; generated code reaches a bus stop on
    every loop iteration, so under the cooperative discipline it never
    runs dry (a preemptive quantum makes [Fuel] ordinary). *)

val image_at : Text.t -> Text.image -> int -> Text.image
(** The image holding a PC: the given one (the last fetch's) when it
    does, else the text map's.  @raise Trapped [Bad_pc] when none does. *)

val syscall_resume : ctx -> text:Text.t -> unit
(** Advance the PC past the [Syscall] instruction it is stopped at, for
    kernel services that complete immediately. *)

val pp_trap : Format.formatter -> trap -> unit
val pp_stop : Format.formatter -> stop -> unit
