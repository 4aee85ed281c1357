(** Machine-independent intermediate representation.

    The IR is a control-flow graph of basic blocks over an unbounded set
    of temporaries, with variables (parameters, the result, locals — and
    the implicit [self] at index 0) as explicit memory-like entities.

    Crucially, {e bus stops are allocated here}, before any
    architecture-specific work: every invocation, allocation, builtin
    system call, loop bottom, and monitor entry/exit receives a stop id,
    dense per class, in a deterministic order.  Each backend then emits a
    mapping from its own program-counter values to these ids, which makes
    the per-architecture bus-stop tables isomorphic by construction —
    the property section 3.3 of the paper requires. *)

type label = int
type temp = int

type entity =
  | Evar of int
  | Etemp of temp

type arith_ty =
  | Aint
  | Areal

type builtin =
  | Bprint_int
  | Bprint_real
  | Bprint_bool
  | Bprint_str
  | Bprint_ref
  | Bprint_nl
  | Blocate
  | Bthisnode
  | Btimenow
  | Bmove  (** [move obj to node] *)
  | Bsconcat
  | Bseq  (** string equality *)
  | Bvec_new
      (** allocate a vector: args are the element-kind code and the
          length; result is the block address *)
  | Bbounds  (** vector index out of range: aborts the thread *)
  | Bstart_process
      (** start the object's process section as a new thread (emitted by
          [new] after [initially] completes) *)
  | Bcond_wait  (** block on a monitor condition (releases the monitor) *)
  | Bcond_signal  (** move one condition waiter to the monitor entry queue (Mesa) *)
  | Bcond_wait_timed
      (** as [Bcond_wait] plus a timeout argument in virtual microseconds *)
  | Bcond_notify_all  (** move every condition waiter to the entry queue *)

type stop_kind =
  | Sk_invoke of {
      argc : int;  (** declared arguments, excluding self *)
      has_result : bool;
      callee_class : int;  (** class index of the static target type *)
      callee_method : int;
    }
  | Sk_new of { class_index : int }
  | Sk_builtin of {
      bi : builtin;
      argc : int;
      has_result : bool;
    }
  | Sk_loop
  | Sk_mon_enter
  | Sk_mon_dequeue
      (** monitor-exit queue unlink: a system call everywhere except the
          VAX, where REMQUE does it in one instruction and the stop is
          exit-only *)
  | Sk_mon_wake

type stop_rec = {
  sr_id : int;  (** class-global bus stop number *)
  sr_op : int;  (** operation index within the class *)
  sr_kind : stop_kind;
  mutable sr_live : (entity * Ast.typ) list;
      (** entities whose values are live across this stop (liveness pass) *)
}

type instr =
  | Iconst_int of temp * int32
  | Iconst_real of temp * float
  | Iconst_bool of temp * bool
  | Iconst_str of temp * int  (** string-pool index *)
  | Iconst_nil of temp
  | Icopy of temp * temp  (** [Icopy (dst, src)] *)
  | Iload_var of temp * int
  | Istore_var of int * temp
  | Iload_field of temp * int
  | Istore_field of int * temp
  | Ibin of {
      dst : temp;
      op : Isa.Insn.binop;
      ty : arith_ty;
      a : temp;
      b : temp;
    }
  | Icmp of {
      dst : temp;
      op : Isa.Insn.cmp;
      ty : arith_ty;
      a : temp;
      b : temp;
    }
  | Ineg of {
      dst : temp;
      ty : arith_ty;
      a : temp;
    }
  | Inot of {
      dst : temp;
      a : temp;
    }
  | Icvt_int_real of {
      dst : temp;
      a : temp;
    }
  | Iinvoke of {
      dst : temp option;
      target : temp;
      class_index : int;
      method_index : int;
      method_name : string;
      args : temp list;
      stop : int;
    }
  | Inew of {
      dst : temp;
      class_index : int;
      stop : int;
    }
  | Ibuiltin of {
      dst : temp option;
      bi : builtin;
      args : temp list;
      stop : int;
    }
  | Ivec_get of {
      dst : temp;
      vec : temp;
      idx : temp;
      stop : int;  (** the bounds-failure stop *)
    }
  | Ivec_set of {
      vec : temp;
      idx : temp;
      src : temp;
      stop : int;
    }
  | Ivec_len of {
      dst : temp;
      vec : temp;
    }
  | Imon_enter of { stop : int }
  | Imon_exit of {
      dequeue_stop : int;
      wake_stop : int;
    }

type terminator =
  | Tjump of label
  | Tcond of {
      c : temp;
      if_true : label;
      if_false : label;
    }
  | Treturn
  | Tloop of {
      target : label;
      stop : int;  (** loop-bottom poll stop *)
    }

type block = {
  b_label : label;
  mutable b_instrs : instr list;
  mutable b_term : terminator;
}

type var_kind =
  | Kself
  | Kparam of int
  | Kresult
  | Klocal of int

type var_def = {
  vd_name : string;
  vd_type : Ast.typ;
  vd_kind : var_kind;
}

type op_ir = {
  oi_name : string;
  oi_index : int;
  oi_monitored : bool;
  oi_vars : var_def array;  (** self, params, result, locals — in that order *)
  oi_nparams : int;  (** including self *)
  oi_result : int option;  (** var id of the result *)
  oi_temp_types : Ast.typ array;
  oi_blocks : block array;  (** entry is block 0; labels are array indices *)
  oi_stops : stop_rec array;  (** this operation's stops, ascending id *)
}

type field_init =
  | Fint of int32
  | Freal of float
  | Fbool of bool
  | Fstr of string
  | Fnil

type class_ir = {
  cl_name : string;
  cl_index : int;
  cl_fields : (string * Ast.typ) array;
  cl_attached : bool array;
  cl_field_inits : field_init array;
  cl_conditions : string array;
  cl_strings : string array;
  cl_ops : op_ir array;
  cl_nstops : int;  (** total bus stops in the class *)
  cl_has_initially : bool;
}

type program_ir = {
  pr_name : string;
  pr_classes : class_ir array;
}

val is_pointer_type : Ast.typ -> bool
(** strings and object references are pointers; nil-typed slots are too *)

val builtin_name : builtin -> string
val defs : instr -> temp option
val uses : instr -> temp list
val stop_of_instr : instr -> int list
val term_uses : terminator -> temp list
val successors : terminator -> label list
val find_stop : op_ir -> int -> stop_rec
