type tid = int

type link = {
  ln_node : int;
  ln_seg : int;
}

type suspension = Value.t Isa.Suspend.t

type status =
  | Parked of suspension
  | Running
  | Blocked_monitor of {
      mon_addr : int;
      qnode : int;
      cond : int;
      deadline : float option;
    }
  | Awaiting_reply of { stop_id : int }
  | Dead

type spawn_info = {
  si_target : int32;
  si_class : int;
  si_method : int;
  si_args : Value.t list;
}

type segment = {
  seg_id : int;
  seg_thread : tid;
  mutable seg_status : status;
  seg_ctx : Isa.Machine.ctx;
  seg_stack_top : int;
  seg_stack_bottom : int;
  mutable seg_link : link option;
  mutable seg_result_type : Emc.Ast.typ option;
  mutable seg_spawn : spawn_info option;
  mutable seg_live : bool;
}

let fresh_tid ~node_id ~serial = (node_id lsl 20) lor serial
let fresh_seg_id ~node_id ~serial = (node_id lsl 20) lor serial

let rec pp_status ppf = function
  | Parked Isa.Suspend.Run -> Format.pp_print_string ppf "ready"
  | Parked (Isa.Suspend.Complete_word (w, bits)) ->
    pp_status ppf (Parked (Isa.Suspend.Complete (Some (Value.of_word w bits))))
  | Parked s -> Format.fprintf ppf "parked (%a)" (Isa.Suspend.pp ~value:Value.pp) s
  | Running -> Format.pp_print_string ppf "running"
  | Blocked_monitor { deadline = Some d; _ } ->
    Format.fprintf ppf "blocked on monitor (timeout at %.1fus)" d
  | Blocked_monitor _ -> Format.pp_print_string ppf "blocked on monitor"
  | Awaiting_reply { stop_id } -> Format.fprintf ppf "awaiting reply at stop %d" stop_id
  | Dead -> Format.pp_print_string ppf "dead"
