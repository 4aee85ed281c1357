type t = {
  by_name : (string, int32) Hashtbl.t;  (* "program/class" -> oid *)
  by_oid : (int32, string * string) Hashtbl.t;
}

let create () = { by_name = Hashtbl.create 32; by_oid = Hashtbl.create 32 }

(* FNV-1a, folded to a positive 30-bit value so OIDs stay clear of the
   node-id tag space used by the runtime *)
let fnv1a s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c ->
      h := (!h lxor Char.code c) * 0x01000193;
      h := !h land 0x3FFFFFFF)
    s;
  !h

let assign t ~program ~class_name =
  let key = program ^ "/" ^ class_name in
  match Hashtbl.find_opt t.by_name key with
  | Some oid -> oid
  | None ->
    let rec probe h =
      let candidate = Int32.of_int (if h = 0 then 1 else h) in
      if Hashtbl.mem t.by_oid candidate then probe ((h + 1) land 0x3FFFFFFF)
      else candidate
    in
    let oid = probe (fnv1a key) in
    Hashtbl.replace t.by_name key oid;
    Hashtbl.replace t.by_oid oid (program, class_name);
    oid

let lookup t oid = Hashtbl.find_opt t.by_oid oid
let count t = Hashtbl.length t.by_name
