(** Threads as chains of stack segments.

    A thread is a single logical flow of control with a cluster-unique id.
    Its call stack is a chain of {e segments}: contiguous runs of
    activation records, each resident on one node.  New segments appear
    when an invocation crosses nodes (remote invocation) and when
    migration splits a stack because some activation records belong to a
    moving object and some do not (Example 1 of the paper).  When the
    bottom activation record of a segment returns, the result travels
    along [seg_link] to the segment below, possibly on another node. *)

type tid = int

type link = {
  ln_node : int;
  ln_seg : int;  (** segment id to deliver the return value to *)
}

type suspension = Value.t Isa.Suspend.t
(** How a parked segment resumes: the shared {!Isa.Suspend.t}
    instantiated at the runtime value type.  Only the resumable subset
    (see the invariant table in suspend.mli) is ever stored here. *)

type status =
  | Parked of suspension
      (** the segment is a first-class resumable value owned by the
          kernel: at a bus stop (or between stops only for [Run] under a
          preemptive quantum), with the pending resume action recorded *)
  | Running
  | Blocked_monitor of {
      mon_addr : int;  (** descriptor of the object whose monitor we await *)
      qnode : int;  (** our wait-queue node; 0 when already dequeued and
                        awaiting the wake *)
      cond : int;
          (** -1: the monitor entry queue; otherwise the index of the
              condition variable we are waiting on *)
      deadline : float option;
          (** virtual time at which a timed condition wait gives up;
              cleared when the waiter moves to the entry queue *)
    }
  | Awaiting_reply of { stop_id : int }
  | Dead

type spawn_info = {
  si_target : int32;  (** OID of the target object *)
  si_class : int;
  si_method : int;
  si_args : Value.t list;
}
(** A machine-independent record of how a segment was spawned, kept until
    its first instruction runs: a never-executed segment has no activation
    record at a bus stop yet, so migration ships this instead. *)

type segment = {
  seg_id : int;
  seg_thread : tid;
  mutable seg_status : status;
  seg_ctx : Isa.Machine.ctx;
  seg_stack_top : int;  (** highest address of the stack region *)
  seg_stack_bottom : int;  (** lowest usable address *)
  mutable seg_link : link option;  (** None: bottom of the whole thread *)
  mutable seg_result_type : Emc.Ast.typ option;
      (** result type of the bottom activation record's operation, for
          marshalling the value sent along [seg_link] *)
  mutable seg_spawn : spawn_info option;
  mutable seg_live : bool;
      (** mirror of "this exact record is in its kernel's segment table",
          maintained by [Kernel.register_segment] / [unregister_segment]
          so the dispatch loop can skip superseded queue entries without
          a table probe *)
}

val fresh_tid : node_id:int -> serial:int -> tid
val fresh_seg_id : node_id:int -> serial:int -> int
val pp_status : Format.formatter -> status -> unit
