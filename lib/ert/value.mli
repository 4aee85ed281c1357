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
val of_word : Isa.Suspend.word -> int -> t
(** The value a result held as a word stands for (a reference's word is
    its OID's {!Oid.intern} image). *)

val pp : Format.formatter -> t -> unit

val write : Enet.Wire.Writer.t -> t -> unit
(** Tagged network-format encoding. *)

val read : Enet.Wire.Reader.t -> t
(** @raise Failure on a corrupt tag. *)

val read_tagged : Enet.Wire.Reader.t -> int -> t
(** [read_tagged r tag] reads the rest of a value whose leading tag byte
    was [tag]: [read r] is [read_tagged r (Enet.Wire.Reader.u8 r)].
    @raise Failure on a corrupt tag. *)

val tag_int : int
val tag_real : int
val tag_bool : int
val tag_str : int
val tag_ref : int
val tag_nil : int
val tag_vec : int
(** The tag byte that leads each constructor's encoding. *)

val write_typ : Enet.Wire.Writer.t -> Emc.Ast.typ -> unit
val read_typ : Enet.Wire.Reader.t -> Emc.Ast.typ
