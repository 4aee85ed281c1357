(* Virtual-time spans over the migration pipeline (DESIGN.md §12).

   A span id is a (node, seq) pair: every node numbers the spans it
   opens from its own counter, so ids are deterministic and span
   streams replay byte for byte. *)

type id = {
  id_node : int;
  id_seq : int;
}

type t = {
  name : string;  (* phase: "move", "capture", "translate", ... *)
  node : int;  (* the node whose clock bracketed the work *)
  arch_pair : string;  (* "src_arch->dst_arch" *)
  t_start_us : float;
  t_end_us : float;
  id : id;
  parent : id option;  (* the enclosing move span, if any *)
  bytes : int;  (* payload bytes for encode/decode/transfer phases *)
}

let duration_us s = s.t_end_us -. s.t_start_us

let id_to_string i = Printf.sprintf "%d:%d" i.id_node i.id_seq

let compare_id a b =
  match compare a.id_node b.id_node with
  | 0 -> compare a.id_seq b.id_seq
  | c -> c

let to_string s =
  Printf.sprintf "span %s node=%d pair=%s t0=%.3fus t1=%.3fus id=%s%s%s" s.name
    s.node s.arch_pair s.t_start_us s.t_end_us (id_to_string s.id)
    (match s.parent with
    | None -> ""
    | Some p -> " parent=" ^ id_to_string p)
    (if s.bytes > 0 then Printf.sprintf " bytes=%d" s.bytes else "")
