(** The virtual instruction sets.

    One OCaml type covers the union of the three families' instructions;
    each code generator emits only its family's subset, which
    {!Isa_validate.check} enforces.  Branch and call targets that are
    [int]s are byte offsets within the enclosing code object; absolute
    addresses travel in registers ({!Jsr_ind}).

    Program-counter values are byte offsets, and instruction encodings have
    family-specific sizes ({!size_bytes}): variable 1-6 byte VAX encodings,
    2-8 byte M68k encodings, fixed 4-byte SPARC words.  The same program
    point therefore has different PC values on different machines — the
    problem bus stops exist to solve. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | And
  | Or
  | Xor

type cmp =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type t =
  | Mov of Operand.t * Operand.t  (** [Mov (src, dst)] *)
  | Bin3 of binop * Operand.t * Operand.t * Operand.t
      (** three-operand integer op (VAX; SPARC with register operands):
          [dst <- src1 op src2] as [Bin3 (op, src1, src2, dst)] *)
  | Bin2 of binop * Operand.t * Operand.t
      (** two-operand integer op (M68k): [dst <- dst op src] as
          [Bin2 (op, src, dst)]; sets the condition codes *)
  | Fbin3 of binop * Operand.t * Operand.t * Operand.t
      (** float op on register images in the architecture's float format;
          only [Add], [Sub], [Mul], [Div] are valid *)
  | Fbin2 of binop * Operand.t * Operand.t
  | Neg of Operand.t * Operand.t  (** [Neg (src, dst)] *)
  | Fneg of Operand.t * Operand.t
  | Cvt_if of Operand.t * Operand.t  (** int to native-format float *)
  | Cvt_fi of Operand.t * Operand.t  (** float to int, truncating *)
  | Cmp of Operand.t * Operand.t  (** signed compare, sets condition codes *)
  | Fcmp of Operand.t * Operand.t
  | Bcc of cmp * int  (** conditional branch on condition codes *)
  | Br of int
  | Jmp_abs of int
      (** unconditional jump to an absolute text address, used by the
          dynamically generated bridge fragments (paper section 2.4) to
          re-enter a class image from outside it: VAX [JMP @#addr], M68k
          [jmp (addr).l], SPARC a folded [sethi %hi(addr); jmpl] pair *)
  | Jsr_ind of Reg.t
      (** indirect call to an absolute text address: VAX/M68k push the
          return address; SPARC writes it to %o7 *)
  | Push of Operand.t  (** VAX PUSHL *)
  | Vax_entry of int
      (** VAX procedure entry: push save mask word, push FP, FP <- SP,
          SP <- SP - size *)
  | Vax_ret  (** VAX RET: SP <- FP; pop FP; pop mask; pop PC *)
  | Link of int  (** M68k LINK A6,#-size *)
  | Unlk  (** M68k UNLK A6 *)
  | Rts  (** M68k RTS *)
  | Save of int
      (** SPARC SAVE with eager window spill: store %l0-7/%i0-7 below the
          new SP, shift %o -> %i (so FP <- caller SP), SP <- SP - 64 - size *)
  | Restore  (** SPARC RESTORE: reload the spilled window, shift %i -> %o *)
  | Retl  (** SPARC return: PC <- %o7 (used after [Restore]) *)
  | Sethi of int32 * Reg.t  (** SPARC: dst <- imm << 10 *)
  | Syscall of int  (** trap into the node kernel; a bus stop *)
  | Poll of int
      (** loop-bottom poll (the compare-SP-against-limit check of section
          3.2, folded into one cheap instruction): if the kernel has
          requested control, trap; otherwise fall through.  The operand is
          unused at run time but keeps encodings distinct.  A bus stop. *)
  | Remque of Reg.t * Reg.t
      (** VAX atomic queue unlink: [Remque (sentinel, dst)] dequeues the
          first element of the doubly linked list rooted at [sentinel]
          (flink at +0, blink at +4); [dst] receives the element address or
          0 when the queue is empty.  Single instruction only on the VAX —
          the source of the exit-only bus stops of section 3.3. *)
  | Nop
  | Halt  (** terminate the thread *)

val size_bytes : Arch.family -> t -> int
(** Encoded size in bytes; deterministic per family. *)

val cycles : Arch.family -> t -> int
(** Approximate execution cost in clock cycles, used by the virtual-time
    cost model. *)

val binop_name : binop -> string
val cmp_name : cmp -> string
val pp : Arch.family -> Format.formatter -> t -> unit
