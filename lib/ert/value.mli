(** Machine-independent values.

    The common currency of remote invocation and migration: typed values
    in no particular machine's representation.  Converting a raw 32-bit
    machine word to and from a [Value.t] (done in {!Kernel}) is where byte
    order, float format and pointer swizzling happen. *)

type t =
  | Vint of int32
  | Vreal of float
  | Vbool of bool
  | Vstr of string
  | Vref of Oid.t
  | Vvec of Emc.Ast.typ * t array
      (** vectors marshal by value: element type and elements *)
  | Vnil

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val type_name : t -> string

val write : Enet.Wire.Writer.t -> t -> unit
(** Tagged network-format encoding. *)

val read : Enet.Wire.Reader.t -> t
(** @raise Failure on a corrupt tag. *)

val write_typ : Enet.Wire.Writer.t -> Emc.Ast.typ -> unit
val read_typ : Enet.Wire.Reader.t -> Emc.Ast.typ
