(** Lowering from the typed AST to the IR.

    Allocates bus-stop ids (dense, per class, in a deterministic
    source-driven order — so independent compilations for different
    architectures agree), makes monitor entry/exit explicit, expands
    short-circuit boolean operators and [while] into control flow, and
    expands [new C\[args\]] into an allocation followed by an [initially]
    invocation. *)

val lower_program :
  name:string -> formats:Isa.Float_format.t list -> Typecheck.tprog -> Ir.program_ir
(** [formats] are the float formats of the architectures the program is
    compiled for: a real literal in an operation body that one of them
    cannot represent is reported at its position.
    @raise Diag.Compile_error *)
