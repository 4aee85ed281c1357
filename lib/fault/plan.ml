type partition = {
  pt_a : int list;
  pt_b : int list;
  pt_from_us : float;
  pt_until_us : float;
}

type chaos = {
  ch_node : int;
  ch_crash_at_us : float;
  ch_restart_at_us : float option;
}

type t = {
  pl_seed : int;
  pl_drop : float;
  pl_dup : float;
  pl_delay_p : float;
  pl_delay_us : float;
  pl_partitions : partition list;
  pl_chaos : chaos list;
}

let empty =
  {
    pl_seed = 0;
    pl_drop = 0.0;
    pl_dup = 0.0;
    pl_delay_p = 0.0;
    pl_delay_us = 0.0;
    pl_partitions = [];
    pl_chaos = [];
  }

let make ?(seed = 0) ?(drop = 0.0) ?(dup = 0.0) ?(delay_p = 0.0) ?(delay_us = 0.0)
    ?(partitions = []) ?(chaos = []) () =
  {
    pl_seed = seed;
    pl_drop = drop;
    pl_dup = dup;
    pl_delay_p = delay_p;
    pl_delay_us = delay_us;
    pl_partitions = partitions;
    pl_chaos = chaos;
  }

let is_trivial t =
  t.pl_drop <= 0.0 && t.pl_dup <= 0.0
  && (t.pl_delay_p <= 0.0 || t.pl_delay_us <= 0.0)
  && t.pl_partitions = [] && t.pl_chaos = []

let with_seed t seed = { t with pl_seed = seed }

let partitioned t ~src ~dst ~now_us =
  List.exists
    (fun p ->
      now_us >= p.pt_from_us && now_us < p.pt_until_us
      && ((List.mem src p.pt_a && List.mem dst p.pt_b)
         || (List.mem src p.pt_b && List.mem dst p.pt_a)))
    t.pl_partitions

(* The draw order (drop, then dup, then delay) is fixed and every branch
   consumes the same number of stream values, so one message's fate never
   shifts another's — a prerequisite for greedy plan shrinking to keep
   later faults stable when an earlier knob is zeroed. *)
let wire_fault t ~rng ~src ~dst ~now_us =
  if partitioned t ~src ~dst ~now_us then Some Enet.Netsim.Fault_drop
  else if t.pl_drop <= 0.0 && t.pl_dup <= 0.0 && (t.pl_delay_p <= 0.0 || t.pl_delay_us <= 0.0)
  then None
  else begin
    let u_drop = Rng.float rng in
    let u_dup = Rng.float rng in
    let u_delay = Rng.float rng in
    let u_amount = Rng.float rng in
    if u_drop < t.pl_drop then Some Enet.Netsim.Fault_drop
    else if u_dup < t.pl_dup then
      Some (Enet.Netsim.Fault_dup (u_amount *. Float.max t.pl_delay_us 1000.0))
    else if u_delay < t.pl_delay_p && t.pl_delay_us > 0.0 then
      Some (Enet.Netsim.Fault_delay (u_amount *. t.pl_delay_us))
    else None
  end

(* ---------------------------------------------------------------- *)
(* spec syntax *)

let parse_float what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: not a number: %S" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: not an integer: %S" what s)

let ( let* ) r f = Result.bind r f

(* [nan] fails both comparisons *)
let check_probability what p =
  if p >= 0.0 && p <= 1.0 then Ok p
  else Error (Printf.sprintf "%s: probability %g is outside [0, 1]" what p)

let parse_probability what s =
  let* p = parse_float what s in
  check_probability what p

let parse_bound what s =
  let* v = parse_float what s in
  if v >= 0.0 && Float.is_finite v then Ok v
  else Error (Printf.sprintf "%s: %g is not a finite non-negative bound" what v)

(* a fault's virtual time: [nan] fails the comparison too *)
let parse_time what s =
  let* v = parse_float what s in
  if v >= 0.0 then Ok v else Error (Printf.sprintf "%s: %g is not a non-negative time" what v)

let parse_group what s =
  let parts = String.split_on_char '+' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
      let* n = parse_int what p in
      go (n :: acc) rest
  in
  go [] parts

let parse_partition s =
  match String.index_opt s '@' with
  | None -> Error "part: expected A|B@FROM:UNTIL"
  | Some at -> (
    let groups = String.sub s 0 at in
    let window = String.sub s (at + 1) (String.length s - at - 1) in
    match String.index_opt groups '|' with
    | None -> Error "part: expected two node groups separated by |"
    | Some bar ->
      let* a = parse_group "part" (String.sub groups 0 bar) in
      let* b =
        parse_group "part" (String.sub groups (bar + 1) (String.length groups - bar - 1))
      in
      let* from_us, until_us =
        match String.split_on_char ':' window with
        | [ f ] ->
          let* f = parse_time "part from" f in
          Ok (f, infinity)
        | [ f; u ] ->
          let* f = parse_time "part from" f in
          let* u = parse_time "part until" u in
          if u > f then Ok (f, u)
          else Error (Printf.sprintf "part: the window %g:%g is empty" f u)
        | _ -> Error "part: expected FROM or FROM:UNTIL"
      in
      Ok { pt_a = a; pt_b = b; pt_from_us = from_us; pt_until_us = until_us })

let parse_chaos s =
  match String.index_opt s '@' with
  | None -> Error "crash: expected NODE@T or NODE@T:RESTART"
  | Some at ->
    let* node = parse_int "crash node" (String.sub s 0 at) in
    let window = String.sub s (at + 1) (String.length s - at - 1) in
    let* crash_at, restart =
      match String.split_on_char ':' window with
      | [ c ] ->
        let* c = parse_time "crash time" c in
        Ok (c, None)
      | [ c; r ] ->
        let* c = parse_time "crash time" c in
        let* r = parse_time "restart time" r in
        if r > c then Ok (c, Some r)
        else Error (Printf.sprintf "crash: restart at %g is not after the crash at %g" r c)
      | _ -> Error "crash: expected T or T:RESTART"
    in
    Ok { ch_node = node; ch_crash_at_us = crash_at; ch_restart_at_us = restart }

let of_string spec =
  let fields =
    String.split_on_char ',' spec |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] ->
      Ok
        { acc with
          pl_partitions = List.rev acc.pl_partitions;
          pl_chaos = List.rev acc.pl_chaos }
    | field :: rest -> (
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "plan: expected key=value, got %S" field)
      | Some eq -> (
        let key = String.sub field 0 eq in
        let value = String.sub field (eq + 1) (String.length field - eq - 1) in
        match key with
        | "seed" ->
          let* v = parse_int "seed" value in
          go { acc with pl_seed = v } rest
        | "drop" ->
          let* v = parse_probability "drop" value in
          go { acc with pl_drop = v } rest
        | "dup" ->
          let* v = parse_probability "dup" value in
          go { acc with pl_dup = v } rest
        | "delay" -> (
          match String.split_on_char ':' value with
          | [ p; us ] ->
            let* p = parse_probability "delay probability" p in
            let* us = parse_bound "delay max us" us in
            go { acc with pl_delay_p = p; pl_delay_us = us } rest
          | _ -> Error "delay: expected P:MAXUS")
        | "part" ->
          let* p = parse_partition value in
          go { acc with pl_partitions = p :: acc.pl_partitions } rest
        | "crash" ->
          let* c = parse_chaos value in
          go { acc with pl_chaos = c :: acc.pl_chaos } rest
        | _ -> Error (Printf.sprintf "plan: unknown key %S" key)))
  in
  go empty fields

let check_nodes t ~n_nodes =
  let outside what node =
    Error (Printf.sprintf "%s node %d is outside the %d-node cluster" what node n_nodes)
  in
  let bad node = node < 0 || node >= n_nodes in
  match List.find_opt (fun c -> bad c.ch_node) t.pl_chaos with
  | Some c -> outside "crash" c.ch_node
  | None -> (
    match List.find_opt bad (List.concat_map (fun p -> p.pt_a @ p.pt_b) t.pl_partitions) with
    | Some node -> outside "part" node
    | None -> Ok ())

let group_to_string g = String.concat "+" (List.map string_of_int g)

let to_string t =
  let b = Buffer.create 64 in
  let add fmt = Printf.ksprintf (fun s ->
      if Buffer.length b > 0 then Buffer.add_char b ',';
      Buffer.add_string b s) fmt
  in
  if t.pl_seed <> 0 then add "seed=%d" t.pl_seed;
  if t.pl_drop > 0.0 then add "drop=%g" t.pl_drop;
  if t.pl_dup > 0.0 then add "dup=%g" t.pl_dup;
  if t.pl_delay_p > 0.0 && t.pl_delay_us > 0.0 then
    add "delay=%g:%g" t.pl_delay_p t.pl_delay_us;
  List.iter
    (fun p ->
      if p.pt_until_us = infinity then
        add "part=%s|%s@%g" (group_to_string p.pt_a) (group_to_string p.pt_b)
          p.pt_from_us
      else
        add "part=%s|%s@%g:%g" (group_to_string p.pt_a) (group_to_string p.pt_b)
          p.pt_from_us p.pt_until_us)
    t.pl_partitions;
  List.iter
    (fun c ->
      match c.ch_restart_at_us with
      | None -> add "crash=%d@%g" c.ch_node c.ch_crash_at_us
      | Some r -> add "crash=%d@%g:%g" c.ch_node c.ch_crash_at_us r)
    t.pl_chaos;
  Buffer.contents b

let describe t =
  if is_trivial t then "no faults (reliable wire)"
  else
    Printf.sprintf
      "seed %d: drop %.0f%%, dup %.0f%%, delay %.0f%% (<=%.0fus), %d partition(s), %d crash window(s)"
      t.pl_seed (t.pl_drop *. 100.0) (t.pl_dup *. 100.0) (t.pl_delay_p *. 100.0)
      t.pl_delay_us
      (List.length t.pl_partitions)
      (List.length t.pl_chaos)
