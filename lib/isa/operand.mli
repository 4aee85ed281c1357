(** Instruction operands.

    The addressing modes are the union of what the three families offer;
    {!Isa_validate} checks that code emitted for a family uses only that
    family's modes (e.g. SPARC is a load/store architecture and allows
    memory operands only in [Mov], while the VAX allows them anywhere). *)

type mem =
  | Abs of int32  (** absolute address *)
  | Disp of Reg.t * int  (** displacement: [d(Rn)] *)
  | Autoinc of Reg.t  (** [(Rn)+] — VAX and M68k post-increment *)
  | Autodec of Reg.t  (** [-(Rn)] — VAX and M68k pre-decrement *)

type t =
  | Reg of Reg.t
  | Imm of int32
  | Mem of mem

val pp : Arch.family -> Format.formatter -> t -> unit
