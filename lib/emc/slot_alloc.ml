module ISet = Liveness.ISet

let build_op (op : Ir.op_ir) : Template.op_t * Template.stop_t array =
  let info = Liveness.analyse op in
  let slot_of_key = Hashtbl.create 32 in
  let slot_classes = ref [] in
  let n_slots = ref 0 in
  let new_slot cls =
    let s = !n_slots in
    incr n_slots;
    slot_classes := cls :: !slot_classes;
    s
  in
  let class_of_key k =
    let ty =
      if Liveness.is_temp_key op k then op.Ir.oi_temp_types.(Liveness.temp_of_key op k)
      else op.Ir.oi_vars.(k).Ir.vd_type
    in
    Template.slot_class_of_type ty
  in
  (* dedicated slots for self, parameters and the result *)
  let dedicated k = Hashtbl.replace slot_of_key k (new_slot (class_of_key k)) in
  for v = 0 to op.Ir.oi_nparams - 1 do
    dedicated (Liveness.key_of_var op v)
  done;
  (match op.Ir.oi_result with
  | Some r -> dedicated (Liveness.key_of_var op r)
  | None -> ());
  (* locals and slotted temps share slots within their class when their
     live ranges do not interfere *)
  let interferes_with k = Option.value (Hashtbl.find_opt info.Liveness.li_interf k) ~default:ISet.empty in
  let shared_pool : (int * Template.slot_class * ISet.t ref) list ref = ref [] in
  let assign_shared k =
    let cls = class_of_key k in
    let conflicts = interferes_with k in
    let rec find = function
      | [] ->
        let s = new_slot cls in
        shared_pool := !shared_pool @ [ (s, cls, ref (ISet.singleton k)) ];
        s
      | (s, c, members) :: rest ->
        if
          c = cls
          && ISet.is_empty (ISet.inter !members conflicts)
          && not (ISet.mem k !members)
        then begin
          members := ISet.add k !members;
          s
        end
        else find rest
    in
    Hashtbl.replace slot_of_key k (find !shared_pool)
  in
  Array.iteri
    (fun v vd ->
      match vd.Ir.vd_kind with
      | Ir.Klocal _ -> assign_shared (Liveness.key_of_var op v)
      | Ir.Kself | Ir.Kparam _ | Ir.Kresult -> ())
    op.Ir.oi_vars;
  ISet.iter assign_shared info.Liveness.li_slotted_temps;
  (* materialise the template *)
  let var_slot v = Hashtbl.find slot_of_key (Liveness.key_of_var op v) in
  let vars =
    Array.mapi (fun v vd -> (vd.Ir.vd_name, vd.Ir.vd_type, var_slot v)) op.Ir.oi_vars
  in
  let temp_slots =
    Array.init (Array.length op.Ir.oi_temp_types) (fun t ->
        Hashtbl.find_opt slot_of_key (Liveness.key_of_temp op t))
  in
  let slot_of_entity = function
    | Ir.Evar v -> var_slot v
    | Ir.Etemp t -> (
      match temp_slots.(t) with
      | Some s -> s
      | None -> invalid_arg "slot_alloc: live temp without slot")
  in
  let stops =
    Array.map
      (fun (sr : Ir.stop_rec) ->
        {
          Template.st_id = sr.Ir.sr_id;
          st_op = sr.Ir.sr_op;
          st_kind = sr.Ir.sr_kind;
          st_live =
            List.map
              (fun (e, ty) ->
                { Template.es_entity = e; es_slot = slot_of_entity e; es_type = ty })
              sr.Ir.sr_live;
        })
      op.Ir.oi_stops
  in
  let tmpl =
    {
      Template.ot_name = op.Ir.oi_name;
      ot_index = op.Ir.oi_index;
      ot_monitored = op.Ir.oi_monitored;
      ot_nparams = op.Ir.oi_nparams;
      ot_result_var = op.Ir.oi_result;
      ot_vars = vars;
      ot_temp_slots = temp_slots;
      ot_nslots = !n_slots;
      ot_slot_class = Array.of_list (List.rev !slot_classes);
    }
  in
  (tmpl, stops)

let build_class (cl : Ir.class_ir) ~oid : Template.class_t =
  let ops, stops = Array.split (Array.map build_op cl.Ir.cl_ops) in
  (* stop ids are numbered class-wide in operation order, so the
     operations' stops concatenate dense by id *)
  let stops = Array.concat (Array.to_list stops) in
  Array.iteri (fun i s -> assert (s.Template.st_id = i)) stops;
  {
    Template.ct_name = cl.Ir.cl_name;
    ct_index = cl.Ir.cl_index;
    ct_oid = oid;
    ct_fields = cl.Ir.cl_fields;
    ct_attached = cl.Ir.cl_attached;
    ct_field_inits = cl.Ir.cl_field_inits;
    ct_conditions = cl.Ir.cl_conditions;
    ct_strings = cl.Ir.cl_strings;
    ct_ops = ops;
    ct_stops = stops;
    ct_nstops = cl.Ir.cl_nstops;
  }
