type entry = {
  be_id : int;
  be_op : int;
  be_pc : int;
  be_alt_pc : int option;
  be_exit_only : bool;
  be_elided : bool;
  be_sp_depth : int;
  be_pop_bytes : int;
  be_kind : Ir.stop_kind;
}

type frame_info = {
  fr_op : int;
  fr_frame_size : int;
  fr_slot_offsets : int array;
  fr_fixed_sp_depth : int;
}

type table = {
  bt_arch_id : string;
  bt_entries : entry array;
  bt_pcs : int array;
  bt_pc_stops : int array;
  bt_frames : frame_info array;
}

let make ~arch_id ~entries ~frames =
  Array.iteri
    (fun i e ->
      if e.be_id <> i then
        invalid_arg
          (Printf.sprintf "Busstop.make: entry %d has id %d (must be dense)" i e.be_id))
    entries;
  let bindings =
    Array.fold_left
      (fun acc e ->
        if e.be_exit_only || e.be_elided then acc
        else
          let acc = (e.be_pc, e.be_id) :: acc in
          match e.be_alt_pc with
          | Some pc -> (pc, e.be_id) :: acc
          | None -> acc)
      [] entries
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> Array.of_list
  in
  let pcs = Array.map fst bindings in
  for i = 1 to Array.length pcs - 1 do
    if pcs.(i) = pcs.(i - 1) then
      invalid_arg (Printf.sprintf "Busstop.make: two stops at PC %#x" pcs.(i))
  done;
  { bt_arch_id = arch_id; bt_entries = entries; bt_pcs = pcs;
    bt_pc_stops = Array.map snd bindings; bt_frames = frames }

let id_of_pc t pc =
  let pcs = t.bt_pcs in
  let lo = ref 0 and hi = ref (Array.length pcs) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if pcs.(mid) < pc then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length pcs && pcs.(!lo) = pc then t.bt_pc_stops.(!lo) else -1

let of_pc t pc =
  match id_of_pc t pc with
  | -1 -> None
  | id -> Some t.bt_entries.(id)

let by_id t id =
  if id < 0 || id >= Array.length t.bt_entries then
    invalid_arg (Printf.sprintf "Busstop.by_id: no stop %d" id);
  t.bt_entries.(id)

let count t = Array.length t.bt_entries

let kind_name = function
  | Ir.Sk_invoke _ -> "invoke"
  | Ir.Sk_new _ -> "new"
  | Ir.Sk_builtin { bi; _ } -> Ir.builtin_name bi
  | Ir.Sk_loop -> "loop"
  | Ir.Sk_mon_enter -> "mon-enter"
  | Ir.Sk_mon_dequeue -> "mon-dequeue"
  | Ir.Sk_mon_wake -> "mon-wake"

let pp ppf t =
  Format.fprintf ppf "bus stops (%s):@." t.bt_arch_id;
  Array.iter
    (fun e ->
      Format.fprintf ppf "  stop %2d op %d pc %04x%s %s sp-depth %d%s%s@." e.be_id e.be_op
        e.be_pc
        (match e.be_alt_pc with
        | Some p -> Printf.sprintf " alt %04x" p
        | None -> "")
        (kind_name e.be_kind) e.be_sp_depth
        (if e.be_exit_only then " [exit-only]" else "")
        (if e.be_elided then " [elided]" else ""))
    t.bt_entries
