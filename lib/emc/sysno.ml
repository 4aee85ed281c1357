let sys_invoke = 1
let sys_mon_exit_dequeue = 4
let sys_mon_wake = 5

let of_stop = function
  | Ir.Sk_loop -> 0
  | Ir.Sk_invoke _ -> sys_invoke
  | Ir.Sk_new _ -> 2
  | Ir.Sk_mon_enter -> 3
  | Ir.Sk_mon_dequeue -> sys_mon_exit_dequeue
  | Ir.Sk_mon_wake -> sys_mon_wake
  | Ir.Sk_builtin { bi; _ } -> (
    match bi with
    | Ir.Bprint_int -> 6
    | Ir.Bprint_real -> 7
    | Ir.Bprint_bool -> 8
    | Ir.Bprint_str -> 9
    | Ir.Bprint_ref -> 10
    | Ir.Bprint_nl -> 11
    | Ir.Blocate -> 12
    | Ir.Bthisnode -> 13
    | Ir.Btimenow -> 14
    | Ir.Bmove -> 15
    | Ir.Bsconcat -> 16
    | Ir.Bseq -> 17
    | Ir.Bvec_new -> 18
    | Ir.Bbounds -> 19
    | Ir.Bstart_process -> 20
    | Ir.Bcond_wait -> 21
    | Ir.Bcond_signal -> 22
    | Ir.Bcond_wait_timed -> 23
    | Ir.Bcond_notify_all -> 24)
