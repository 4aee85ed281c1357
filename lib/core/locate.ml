module K = Ert.Kernel
module M = Mobility.Marshal
module E = Events

type mode =
  | Loc_off
  | Loc_directory

(* an in-flight Emerald location search, owned by the asking node *)
type search = {
  s_asker : int;
  mutable s_pending : M.message list;
  mutable s_awaiting : int;  (* probe answers still outstanding *)
}

type t = {
  mode : mode;
  kernels : K.t array;  (* the cluster's, read only here *)
  down : bool array;  (* likewise *)
  bus : E.bus;
  tr : Transport.t;
  searches : (Ert.Oid.t, search) Hashtbl.t;  (* open searches, by object *)
  partition : Loc.Partition.t;  (* OID -> home-shard map (stateless) *)
  dirs : Loc.Directory.t array;
      (* node i's directory shard: entries for OIDs whose home is i
         (empty unless the directory is on) *)
  dir_waits : (Ert.Oid.t, M.message list) Hashtbl.t array;
      (* per asker node: messages parked awaiting that node's in-flight
         M_dir_lookup, newest first (empty unless the directory is on) *)
  send : src:int -> Mobility.Move.send -> unit;
  drop : M.message -> reason:string -> unit;
}

let create ~mode ~kernels ~down ~bus ~transport ~send ~drop =
  let n = Array.length kernels in
  let shards = match mode with Loc_off -> 0 | Loc_directory -> n in
  { mode; kernels; down; bus; tr = transport;
    searches = Hashtbl.create 4;
    partition = Loc.Partition.create ~n_nodes:n;
    dirs = Array.init shards (fun _ -> Loc.Directory.create ());
    dir_waits = Array.init shards (fun _ -> Hashtbl.create 4);
    send; drop }

let mode t = t.mode
let home t oid = Loc.Partition.home t.partition oid

(* host-side directory inspection (no hit/miss accounting) *)
let entry t oid =
  match t.mode with
  | Loc_off -> None
  | Loc_directory -> (
    match Loc.Directory.peek t.dirs.(home t oid) oid with
    | -1 -> None
    | node -> Some node)

let stats t =
  Array.fold_left
    (fun (u, s, h, m) d ->
      ( u + Loc.Directory.updates d,
        s + Loc.Directory.stale_dropped d,
        h + Loc.Directory.hits d,
        m + Loc.Directory.misses d ))
    (0, 0, 0, 0) t.dirs

let unlocatable obj =
  Printf.sprintf "object %s cannot be located" (Ert.Oid.to_string obj)

(* point the node's proxy for [obj] at [node] *)
let hint t ~at obj ~node =
  let k = t.kernels.(at) in
  K.set_proxy_hint k ~addr:(K.ensure_ref k obj) ~node

let post t ~src node msg = t.send ~src { Mobility.Move.snd_dest = node; snd_msg = msg }

let rec post_all t ~src node = function
  | [] -> ()
  | msg :: rest ->
    post t ~src node msg;
    post_all t ~src node rest

(* ----------------------------------------------------------------------- *)
(* the broadcast search, and the losses that end it *)

let search_negative t obj (s : search) =
  s.s_awaiting <- s.s_awaiting - 1;
  if s.s_awaiting <= 0 then begin
    Hashtbl.remove t.searches obj;
    E.emit t.bus (E.Ev_search_failed { obj });
    List.iter (fun msg -> t.drop msg ~reason:(unlocatable obj)) s.s_pending
  end

(* Emerald's broadcast location search: probe every live node; park the
   unroutable message until an answer arrives *)
let start_search t ~asker obj msg =
  match Hashtbl.find_opt t.searches obj with
  | Some s -> s.s_pending <- msg :: s.s_pending
  | None ->
    let others = ref [] in
    Array.iteri (fun i down -> if i <> asker && not down then others := i :: !others) t.down;
    (match !others with
    | [] -> t.drop msg ~reason:(unlocatable obj)
    | probes ->
      E.emit t.bus (E.Ev_search_start { node = asker; obj; probes = List.length probes });
      Hashtbl.replace t.searches obj
        { s_asker = asker; s_pending = [ msg ]; s_awaiting = List.length probes };
      List.iter (fun i -> post t ~src:asker i (M.M_locate { obj })) probes)

(* every node whose directory wait on [obj] can no longer be answered
   falls back to the broadcast search with its parked messages *)
let dir_fallback t obj =
  Array.iteri
    (fun asker waits ->
      match Hashtbl.find_opt waits obj with
      | None -> ()
      | Some pending ->
        Hashtbl.remove waits obj;
        List.iter (fun msg -> start_search t ~asker obj msg) (List.rev pending))
    t.dir_waits

let lost t (msg : M.message) =
  match msg with
  | M.M_locate { obj } | M.M_located { obj; _ } -> (
    (* a probe or its answer died on the wire: it counts as a negative
       answer, so the search still ends once every probe is accounted
       for *)
    match Hashtbl.find_opt t.searches obj with
    | None -> ()
    | Some s -> search_negative t obj s)
  | M.M_dir_lookup { obj } | M.M_dir_reply { obj; _ } ->
    (* a lookup (or its answer) died on the wire: release every parked
       message waiting on it into the broadcast search *)
    dir_fallback t obj
  | M.M_invoke _ | M.M_invoke_via _ | M.M_reply _ | M.M_move _ | M.M_group_move _
  | M.M_move_req _ | M.M_start_process _ | M.M_dir_update _ | M.M_loc_hint _ -> ()

(* An exhausted (or absent) proxy chain.  With the directory on, ask the
   object's home shard — one unicast instead of the broadcast — parking
   the message until the answer; the broadcast search remains the
   fallback of last resort (home unreachable, no entry, stale answer). *)
let fallback t ~asker obj msg =
  match t.mode with
  | Loc_off -> start_search t ~asker obj msg
  | Loc_directory ->
    let home = home t obj in
    if home = asker then begin
      (* the asker owns the home shard: consult it locally *)
      let hit = Loc.Directory.lookup t.dirs.(asker) obj in
      E.emit t.bus (E.Ev_dir_lookup { node = asker; obj; found = hit >= 0 });
      if hit >= 0 && hit <> asker && not t.down.(hit) then begin
        hint t ~at:asker obj ~node:hit;
        post t ~src:asker hit msg
      end
      else start_search t ~asker obj msg
    end
    else if not (Transport.reachable t.tr home) then
      (* a known-dead home shard cannot answer *)
      start_search t ~asker obj msg
    else begin
      let waits = t.dir_waits.(asker) in
      match Hashtbl.find_opt waits obj with
      | Some pending -> Hashtbl.replace waits obj (msg :: pending)
      | None ->
        Hashtbl.replace waits obj [ msg ];
        post t ~src:asker home (M.M_dir_lookup { obj })
    end

(* ----------------------------------------------------------------------- *)
(* hop trails and chain collapse (directory mode) *)

let route t ~node ~via ~caller obj (r : Mobility.Rpc.route) =
  match r, t.mode with
  | Mobility.Rpc.Routed sends, Loc_off -> sends
  | Mobility.Rpc.Routed [], Loc_directory ->
    (* the walk is over.  Collapse the chain it came through — every
       traversed node, plus the caller, gets a hint pointing straight at
       this host (ascending node order, so the fanout is deterministic) *)
    E.emit t.bus (E.Ev_locate { node; obj; hops = List.length via });
    List.filter_map
      (fun n ->
        if n = node then None
        else Some { Mobility.Move.snd_dest = n; snd_msg = M.M_loc_hint { obj; node } })
      (if via = [] then [] else List.sort_uniq compare (caller :: via))
  | Mobility.Rpc.Routed sends, Loc_directory ->
    (* forwarding along a proxy chain: record this hop in the trail so
       the eventual host knows whom to collapse *)
    List.map
      (fun s ->
        match s.Mobility.Move.snd_msg with
        | M.M_invoke _ as fwd ->
          { s with Mobility.Move.snd_msg = M.M_invoke_via { via = via @ [ node ]; inv = fwd } }
        | _ -> s)
      sends
  | Mobility.Rpc.Unlocated inv, Loc_off ->
    fallback t ~asker:node obj inv;
    []
  | Mobility.Rpc.Unlocated inv, Loc_directory ->
    fallback t ~asker:node obj (M.M_invoke_via { via = via @ [ node ]; inv });
    []

(* ----------------------------------------------------------------------- *)
(* the directory *)

let register t oid ~node ~at =
  if t.mode = Loc_directory then
    ignore (Loc.Directory.update t.dirs.(home t oid) oid ~node ~at : bool)

(* After a move (or group move) lands with the directory on, tell each
   moved object's home shard where it went.  Updates are batched per
   home and the homes are walked in ascending order, so the published
   traffic is deterministic. *)
let publish t ~dst (payload : M.move_payload) =
  if t.mode = Loc_directory then begin
    let at = K.time_us t.kernels.(dst) in
    let by_home = Hashtbl.create 8 in
    let homes = ref [] in
    List.iter
      (fun (mo : M.move_object) ->
        let oid = mo.M.mo_oid in
        let home = home t oid in
        match Hashtbl.find_opt by_home home with
        | Some l -> Hashtbl.replace by_home home (oid :: l)
        | None ->
          homes := home :: !homes;
          Hashtbl.replace by_home home [ oid ])
      payload.M.mp_objects;
    List.iter
      (fun home ->
        let objs = List.rev (Hashtbl.find by_home home) in
        if home = dst then
          (* the destination owns the home shard: no traffic needed *)
          List.iter
            (fun obj ->
              let applied = Loc.Directory.update t.dirs.(dst) obj ~node:dst ~at in
              E.emit t.bus (E.Ev_dir_update { node = dst; obj; loc = dst; applied }))
            objs
        else post t ~src:dst home (M.M_dir_update { objs; node = dst; at }))
      (List.sort compare !homes)
  end

(* ----------------------------------------------------------------------- *)
(* the location messages *)

let deliver t ~dst ~src (msg : M.message) =
  let k = t.kernels.(dst) in
  match msg with
  | M.M_locate { obj } ->
    post t ~src:dst src (M.M_located { obj; found = K.find_object k obj <> None })
  | M.M_located { obj; found } -> (
    match Hashtbl.find_opt t.searches obj with
    | None -> () (* a late or duplicate answer *)
    | Some s when found ->
      Hashtbl.remove t.searches obj;
      E.emit t.bus (E.Ev_search_found { obj; node = src });
      (* refresh the local forwarding hint *)
      hint t ~at:dst obj ~node:src;
      post_all t ~src:dst src s.s_pending
    | Some s -> search_negative t obj s)
  | M.M_dir_update { objs; node; at } ->
    (* a publish reaching this home shard; last-writer-wins by virtual
       timestamp, so reordered publishes of a ping-ponging object
       cannot regress the entry *)
    List.iter
      (fun obj ->
        let applied = Loc.Directory.update t.dirs.(dst) obj ~node ~at in
        E.emit t.bus (E.Ev_dir_update { node = dst; obj; loc = node; applied }))
      objs
  | M.M_dir_lookup { obj } ->
    let hit = Loc.Directory.lookup t.dirs.(dst) obj in
    E.emit t.bus (E.Ev_dir_lookup { node = dst; obj; found = hit >= 0 });
    post t ~src:dst src
      (if hit >= 0 then M.M_dir_reply { obj; node = hit; known = true }
       else M.M_dir_reply { obj; node = 0; known = false })
  | M.M_dir_reply { obj; node; known } -> (
    let waits = t.dir_waits.(dst) in
    match Hashtbl.find_opt waits obj with
    | None -> () (* a late or duplicate answer; the messages moved on *)
    | Some pending ->
      Hashtbl.remove waits obj;
      let pending = List.rev pending in
      if known && node <> dst && Transport.reachable t.tr node then begin
        (* the answer doubles as a forwarding hint: future invokes go
           direct instead of through the directory again *)
        hint t ~at:dst obj ~node;
        post_all t ~src:dst node pending
      end
      else if K.find_object k obj <> None then
        (* the entry pointed here and it was right: the object came
           home while we were asking.  Re-deliver to ourselves so the
           pending invokes take the normal found path *)
        post_all t ~src:dst dst pending
      else
        match Option.map (fun addr -> K.proxy_hint k addr) (K.proxy_of k obj) with
        | Some hop when hop <> dst && Transport.reachable t.tr hop ->
          (* the entry points here because we hosted the object once
             and its departure published later than our own — our
             forwarding proxy is fresher than the directory, so resume
             the chain walk from it instead of broadcasting (a search
             racing the in-flight transfer would see every probe come
             back negative and wrongly report the object lost) *)
          post_all t ~src:dst hop pending
        | _ ->
          (* no entry and no trail: broadcast search, last resort *)
          List.iter (fun msg -> start_search t ~asker:dst obj msg) pending)
  | M.M_loc_hint { obj; node } ->
    (* chain collapse: repoint this node's forwarding proxy straight at
       the object's current host.  A hint racing the object home (we
       host it again) is simply ignored *)
    if K.find_object k obj = None && node <> dst then begin
      hint t ~at:dst obj ~node;
      E.emit t.bus (E.Ev_collapse { node = dst; obj; loc = node })
    end
  | M.M_invoke _ | M.M_invoke_via _ | M.M_reply _ | M.M_move_req _ | M.M_move _
  | M.M_group_move _ | M.M_start_process _ ->
    invalid_arg "Locate.deliver: not a location message"

(* ----------------------------------------------------------------------- *)
(* crash and restart *)

(* searches owned by the dead node die with it; their pending
   invocations can never be routed *)
let crash_searches t i =
  let reason = Printf.sprintf "node %d crashed" i in
  Hashtbl.fold (fun obj s acc -> if s.s_asker = i then (obj, s) :: acc else acc) t.searches []
  |> List.iter (fun (obj, s) ->
         Hashtbl.remove t.searches obj;
         List.iter (fun msg -> t.drop msg ~reason) s.s_pending)

(* the node's directory shard dies with it (restart rebuilds it from the
   surviving residents), and its in-flight lookups can no longer be
   answered: release their parked messages to the search *)
let crash_shard t i =
  if t.mode = Loc_directory then begin
    Loc.Directory.clear t.dirs.(i);
    let waits =
      Hashtbl.fold (fun obj msgs acc -> (obj, msgs) :: acc) t.dir_waits.(i) []
      |> List.sort (fun (a, _) (b, _) -> compare (Ert.Oid.intern a) (Ert.Oid.intern b))
    in
    Hashtbl.reset t.dir_waits.(i);
    let reason = Printf.sprintf "node %d crashed" i in
    List.iter (fun (_, msgs) -> List.iter (fun msg -> t.drop msg ~reason) (List.rev msgs)) waits
  end

(* rebuild the node's directory shard from the forwarding ground truth:
   every surviving resident whose home partition is this node is
   re-registered at its current host, stamped now — so an update that
   was in flight across the crash arrives stale and is dropped *)
let restart t i =
  if t.mode = Loc_directory then begin
    let d = t.dirs.(i) in
    Loc.Directory.clear d;
    let now = K.time_us t.kernels.(i) in
    Array.iteri
      (fun j k ->
        if not t.down.(j) then
          K.iter_objects k (fun oid _ ->
              if home t oid = i then ignore (Loc.Directory.update d oid ~node:j ~at:now : bool)))
      t.kernels
  end

(* Follow forwarding-proxy hints from [from] toward [oid]: returns the
   hosting node, if one is reached, and the hops taken.  A harness-side
   observer (tests, stats) — it sends nothing and charges nothing, so
   calling it cannot perturb a trace. *)
let chain_walk t ~from oid =
  let rec go node hops visited =
    if List.mem node visited then (None, hops)
    else if (not t.down.(node)) && K.find_object t.kernels.(node) oid <> None then
      (Some node, hops)
    else
      let k = t.kernels.(node) in
      match K.proxy_of k oid with
      | Some addr ->
        let next = K.proxy_hint k addr in
        if next = node then (None, hops) else go next (hops + 1) (node :: visited)
      | None -> (None, hops)
  in
  go from 0 []
