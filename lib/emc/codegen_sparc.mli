(** SPARC code generator.

    Big-endian RISC: load/store architecture, fixed 4-byte instructions,
    13-bit immediates with SETHI for larger constants, register-window
    SAVE/RESTORE frames, arguments passed in the out registers, the return
    address in %o7, and a delay-slot NOP after calls. *)

module Family : Codegen_common.FAMILY

val compile_class_at :
  ?level:Opt.level ->
  arch:Isa.Arch.t ->
  code_oid:int32 ->
  Ir.class_ir ->
  Template.class_t ->
  Isa.Code.t * Busstop.table * Opt.edit list
