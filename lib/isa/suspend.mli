(** The unified suspension representation.

    One type describes every way a running segment can be suspended,
    subsuming what used to be two overlapping enums: the virtual CPU's
    [Machine.stop_reason] (why native execution handed control back) and
    the kernel's [Thread.resume] (what to do when the segment is next
    dispatched).  A parked segment's status carries a ['v t]; the value
    parameter is the runtime's value type (machine-level code
    instantiates it with [Ert.Value.t]), kept abstract here so the ISA
    layer stays value-free.

    Invariant table — which constructors appear where:

    {v
    constructor         produced by      resumable  wire tag
    ------------------  ---------------  ---------  --------
    Run                 CPU (Poll stop,  yes        1
                        quantum expiry),
                        kernel
    Deliver v           kernel           yes        2
    Complete v          kernel           yes        3
    Complete_dequeue s  kernel           yes        4
    Complete_word w n   kernel           yes        — (as 3)
    Poll                CPU              no         —
    Syscall n           CPU              no         —
    Bottom_return       CPU              no         —
    Halt                CPU              no         —
    Trap t              CPU              no         —
    Fuel                CPU              no         —
    v}

    - {e produced by CPU}: [Machine.run] returns it to describe why the
      slice ended.  The kernel immediately consumes CPU-only
      constructors (dispatching the syscall, finishing the bottom
      return, reporting the trap); they are never stored in a
      [Thread.status] and never marshalled.
    - {e resumable}: may appear inside [Thread.Parked] — the segment is
      at a bus stop (or, for [Run] under a preemptive quantum, between
      stops) and [Kernel.step] knows how to resume it.
    - {e wire tag}: the byte tag {!Mobility.Mi_frame} writes; only
      resumable suspensions travel, because capture happens at bus
      stops.  The tags are fixed by the v2 wire format and must not be
      renumbered.  [Complete_word] never travels: capture converts it
      to the [Complete (Some v)] it stands for, which writes tag 3. *)

type trap =
  | Div_zero
  | Nil_deref
  | Mem_fault of int
  | Float_reserved of string
  | Stack_overflow
  | Bad_pc of int
  | Bad_insn of string  (** instruction invalid for this family *)

(** The type of a system-call result held as a word. *)
type word =
  | Wint  (** a 32-bit integer, sign-extended *)
  | Wbool  (** 0 or 1 *)
  | Wref  (** a reference, as the runtime's name for its object *)

type 'v t =
  | Run  (** context is valid; just execute *)
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
  | Deliver of 'v
      (** an invocation result arrived: put it in the return-value
          register, then execute (PC already at the stop) *)
  | Complete of 'v option
      (** parked at a [Syscall] instruction whose kernel service has
          completed (or completes trivially, like a migration arrival):
          set the result if any, pop the arguments, advance the PC *)
  | Complete_dequeue of int option
      (** parked at a monitor-exit dequeue stop: the kernel has unlinked
          a waiter (identified by segment id — a machine-independent
          name, so this state survives migration) or found the queue
          empty; on dispatch, fabricate a fresh queue node for the
          waiter and hand its address to the generated code *)
  | Complete_word of word * int
      (** [Complete (Some v)] for an int, bool or reference [v], held as
          a word: parking and completing the call build no value *)

val pp_trap : Format.formatter -> trap -> unit

val pp :
  ?value:(Format.formatter -> 'v -> unit) -> Format.formatter -> 'v t -> unit
(** Omitting [value] prints carried values as ["<value>"]. *)
