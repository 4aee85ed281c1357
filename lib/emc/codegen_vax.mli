(** VAX code generator.

    Little-endian CISC: three-operand arithmetic with general memory
    operands, PUSHL argument passing, a CALLS-style frame (saved FP, save
    mask word, return address above the frame pointer), variable-length
    instruction encodings — and REMQUE, the atomic queue unlink that gives
    the monitor-exit sequence its exit-only bus stop (section 3.3). *)

module Family : Codegen_common.FAMILY

val compile_class_at :
  ?level:Opt.level ->
  arch:Isa.Arch.t ->
  code_oid:int32 ->
  Ir.class_ir ->
  Template.class_t ->
  Isa.Code.t * Busstop.table * Opt.edit list
