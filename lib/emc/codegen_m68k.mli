(** MC680x0 code generator (Sun-3 and HP9000/300 machines).

    Big-endian CISC: two-address arithmetic (at most one memory operand),
    LINK/UNLK frames, arguments pushed with pre-decrement moves, local
    slots laid out in the opposite order from the VAX — a deliberately
    different activation-record geometry for the same templates. *)

module Family : Codegen_common.FAMILY

val compile_class_at :
  ?level:Opt.level ->
  arch:Isa.Arch.t ->
  code_oid:int32 ->
  Ir.class_ir ->
  Template.class_t ->
  Isa.Code.t * Busstop.table * Opt.edit list
