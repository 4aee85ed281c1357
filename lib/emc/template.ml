type slot_class =
  | Scalar
  | Pointer

type entity_slot = {
  es_entity : Ir.entity;
  es_slot : int;
  es_type : Ast.typ;
}

type stop_t = {
  st_id : int;
  st_op : int;
  st_kind : Ir.stop_kind;
  st_live : entity_slot list;
}

type op_t = {
  ot_name : string;
  ot_index : int;
  ot_monitored : bool;
  ot_nparams : int;
  ot_result_var : int option;
  ot_vars : (string * Ast.typ * int) array;
  ot_temp_slots : int option array;
  ot_nslots : int;
  ot_slot_class : slot_class array;
}

type class_t = {
  ct_name : string;
  ct_index : int;
  ct_oid : int32;
  ct_fields : (string * Ast.typ) array;
  ct_attached : bool array;
  ct_field_inits : Ir.field_init array;
  ct_conditions : string array;
  ct_strings : string array;
  ct_ops : op_t array;
  ct_stops : stop_t array;
  ct_nstops : int;
}

let slot_class_of_type t = if Ir.is_pointer_type t then Pointer else Scalar

let stop_by_id ct id =
  if id < 0 || id >= Array.length ct.ct_stops then
    invalid_arg (Printf.sprintf "Template.stop_by_id: no stop %d in %s" id ct.ct_name);
  ct.ct_stops.(id)

let op_of_stop ct id = ct.ct_ops.((stop_by_id ct id).st_op)

let var_slot op v =
  let _, _, slot = op.ot_vars.(v) in
  slot

let pp_entity ppf = function
  | Ir.Evar v -> Format.fprintf ppf "v%d" v
  | Ir.Etemp t -> Format.fprintf ppf "t%d" t

let pp_class ppf ct =
  Format.fprintf ppf "template %s (class %d, oid %ld)@." ct.ct_name ct.ct_index ct.ct_oid;
  Array.iteri
    (fun i (name, ty) ->
      Format.fprintf ppf "  field %d: %s : %a%s@." i name Ast.pp_typ ty
        (if ct.ct_attached.(i) then " [attached]" else ""))
    ct.ct_fields;
  Array.iter
    (fun op ->
      Format.fprintf ppf "  operation %s: %d slots%s@." op.ot_name op.ot_nslots
        (if op.ot_monitored then " [monitor]" else "");
      Array.iter
        (fun (name, ty, slot) ->
          Format.fprintf ppf "    var %s : %a -> slot %d@." name Ast.pp_typ ty slot)
        op.ot_vars;
      Array.iter
        (fun s ->
          if s.st_op = op.ot_index then
            Format.fprintf ppf "    stop %d: live {%a}@." s.st_id
              (Format.pp_print_list
                 ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                 (fun ppf e ->
                   Format.fprintf ppf "%a@@%d:%a" pp_entity e.es_entity e.es_slot
                     Ast.pp_typ e.es_type))
              s.st_live)
        ct.ct_stops)
    ct.ct_ops
