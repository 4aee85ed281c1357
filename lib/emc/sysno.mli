(** System-call numbers, shared between the code generators and the
    runtime kernel.  Transfers of control to the runtime system happen
    only here and at loop-bottom polls — the bus-stop discipline.

    A system call is a bus stop, so its number is a function of the
    stop's kind ({!Ir.stop_kind}), which already says what the call does
    and how many arguments it takes: the kernel dispatches on the kind
    of the stop it resolved from the PC and only checks that the number
    in the code agrees.  The numbers are part of the emitted code
    ([chmk], [trap], [ta #n]) and do not change. *)

val of_stop : Ir.stop_kind -> int
(** The number of the call a stop of this kind makes: 1-24.  A loop
    stop makes no call; its number is 0, which no code emits. *)

(** The three numbers a back end emits where no stop is in scope. *)

val sys_invoke : int
(** [of_stop (Sk_invoke _)]: the remote path of an invocation site;
    stack/register args: target ref, then the declared arguments *)

val sys_mon_exit_dequeue : int
(** [of_stop Sk_mon_dequeue]; args: object ref; result: dequeued waiter
    node address or 0.  Used by the non-VAX backends — the VAX does this
    with REMQUE. *)

val sys_mon_wake : int  (** [of_stop Sk_mon_wake]; args: waiter node address *)
