(* The partitioned location directory and group migration (DESIGN.md
   sec. 14): the partition map is deterministic, chain collapse keeps
   forwarding chains at one hop, the directory agrees with the
   forwarding ground truth under churn, crashes and restarts, the new
   wire traffic is pinned, and a directory-off cluster stays
   bit-identical to the defaults. *)

module A = Isa.Arch
module C = Core.Cluster
module V = Ert.Value
module W = Core.Workloads

let check = Alcotest.check

let src =
  {|
object Cell
  operation get[x : int] -> [r : int]
    r <- x
  end get
end Cell

object Caller
  operation call[c : Cell, x : int] -> [r : int]
    r <- c.get[x]
  end call
end Caller
|}

let sparcs n = List.init n (fun _ -> A.sparc)

(* ------------------------------------------------------------------ *)
(* the partition map *)

let test_partition_deterministic () =
  let cl = C.create ~location:C.Loc_directory ~archs:(sparcs 8) () in
  ignore (C.compile_and_load cl ~name:"dir" src);
  let oids =
    List.init 64 (fun i -> C.create_object cl ~node:(i mod 8) ~class_name:"Cell")
  in
  (* a second cluster of the same size maps every OID identically: the
     home is a function of the OID and node count alone *)
  let cl2 = C.create ~location:C.Loc_directory ~archs:(sparcs 8) () in
  List.iter
    (fun oid ->
      check Alcotest.int "home is stable across clusters"
        (C.directory_home cl oid) (C.directory_home cl2 oid))
    oids;
  (* every birth registers silently with its home shard *)
  List.iteri
    (fun i oid ->
      check (Alcotest.option Alcotest.int) "birth registered"
        (Some (i mod 8)) (C.directory_entry cl oid))
    oids;
  (* the hash spreads consecutive serials over the ring rather than
     clumping them on one shard *)
  let homes = List.sort_uniq compare (List.map (C.directory_home cl) oids) in
  if List.length homes < 4 then
    Alcotest.failf "64 objects mapped to only %d home shards" (List.length homes)

(* ------------------------------------------------------------------ *)
(* chain collapse: the 50-migration tour *)

(* The target tours nodes 1..5 of a six-node ring for 50 migrations,
   leaving a forwarding proxy at every stop; node 0 only knows the
   creator hint.  The first invoke then walks the accumulated chain —
   several hops — and its success must collapse every hint it touched
   straight to the host: the walk after it takes at most one hop, and a
   second invoke adds zero further hops to the counter. *)
let test_ping_pong_collapse () =
  (* 50 is not a multiple of the 6-node tour cycle, so the target ends
     away from its creator and the walk has a real chain to collapse *)
  let n_nodes = 7 in
  let cl = C.create ~location:C.Loc_directory ~archs:(sparcs n_nodes) () in
  ignore (C.compile_and_load cl ~name:"dir" src);
  let target = C.create_object cl ~node:1 ~class_name:"Cell" in
  let at = ref 1 in
  for _ = 1 to 50 do
    let dest = 1 + (!at mod (n_nodes - 1)) in
    C.group_move cl ~node:!at ~dest [ target ];
    C.run cl;
    at := dest
  done;
  check (Alcotest.option Alcotest.int) "tour landed" (Some !at)
    (C.where_is cl target);
  let caller = C.create_object cl ~node:0 ~class_name:"Caller" in
  let invoke x =
    let tid =
      C.spawn cl ~node:0 ~target:caller ~op:"call"
        ~args:[ V.Vref target; V.Vint (Int32.of_int x) ]
    in
    match C.run_until_result cl tid with
    | Some (V.Vint v) -> Int32.to_int v
    | _ -> Alcotest.fail "invoke returned nothing"
  in
  check Alcotest.int "first invoke answers" 7 (invoke 7);
  let hops_after_first = C.total_counter cl (fun c -> c.Core.Events.c_locates) in
  ignore hops_after_first;
  let walked = C.total_counter cl (fun c -> c.Core.Events.c_locate_hops) in
  if walked < 2 then
    Alcotest.failf "the tour left no chain to walk (only %d hops)" walked;
  if C.total_counter cl (fun c -> c.Core.Events.c_collapses) = 0 then
    Alcotest.fail "a successful walk must collapse the chain it took";
  (* the asker's route is now direct *)
  let host, hops = C.chain_walk cl ~from:0 target in
  check (Alcotest.option Alcotest.int) "walk reaches the host" (Some !at) host;
  if hops > 1 then Alcotest.failf "chain still %d hops after collapse" hops;
  (* and a second invoke pays no forwarding at all *)
  check Alcotest.int "second invoke answers" 9 (invoke 9);
  check Alcotest.int "second invoke took zero hops" walked
    (C.total_counter cl (fun c -> c.Core.Events.c_locate_hops))

(* ------------------------------------------------------------------ *)
(* interned ordering == structural ordering (qcheck) *)

let oid_gen =
  QCheck.Gen.(
    map2
      (fun node serial -> Ert.Oid.fresh_data ~node_id:node ~serial)
      (int_bound (Ert.Oid.max_nodes - 1))
      (int_bound (Ert.Oid.max_serial - 1)))

let prop_intern_order =
  QCheck.Test.make ~name:"interned ordering equals structural ordering"
    ~count:1000
    (QCheck.make QCheck.Gen.(pair oid_gen oid_gen))
    (fun (a, b) ->
      let sign x = compare x 0 in
      sign (Ert.Oid.compare a b)
      = sign (compare (Ert.Oid.intern a) (Ert.Oid.intern b))
      && Ert.Oid.equal a b = (Ert.Oid.intern a = Ert.Oid.intern b))

(* ------------------------------------------------------------------ *)
(* the directory agrees with the forwarding ground truth under churn,
   crashes and restarts (qcheck over seeded op sequences) *)

let churn_agrees seed =
  let n_nodes = 5 in
  let rng = Random.State.make [| 0xd1c; seed |] in
  let cl = C.create ~location:C.Loc_directory ~archs:(sparcs n_nodes) () in
  ignore (C.compile_and_load cl ~name:"dir" src);
  let objects = ref [] in
  let live_nodes () =
    List.filter (fun i -> not (C.is_crashed cl i)) (List.init n_nodes Fun.id)
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  for _ = 1 to 40 do
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 ->
      let node = pick (live_nodes ()) in
      objects := C.create_object cl ~node ~class_name:"Cell" :: !objects
    | 3 | 4 | 5 | 6 -> (
      (* batch-migrate some co-located survivors *)
      let residents =
        List.filter_map
          (fun o ->
            match C.where_is cl o with Some n -> Some (o, n) | None -> None)
          !objects
      in
      match residents with
      | [] -> ()
      | _ ->
        let _, node = pick residents in
        let batch =
          List.filter_map
            (fun (o, n) -> if n = node then Some o else None)
            residents
        in
        let dests = List.filter (fun i -> i <> node) (live_nodes ()) in
        if dests <> [] then C.group_move cl ~node ~dest:(pick dests) batch)
    | 7 ->
      let live = live_nodes () in
      if List.length live > 2 then C.crash_node cl (pick live)
    | _ ->
      let down =
        List.filter (fun i -> C.is_crashed cl i) (List.init n_nodes Fun.id)
      in
      if down <> [] then C.restart_node cl (pick down));
    C.run cl
  done;
  (* at quiescence every publish has landed and every restart has
     rebuilt its shard, so for every surviving object whose home shard
     is alive the directory must point exactly where the object is —
     and any forwarding walk that terminates must agree *)
  List.for_all
    (fun o ->
      match C.where_is cl o with
      | None -> true (* lost to a crash; nothing to agree about *)
      | Some host ->
        let home = C.directory_home cl o in
        let dir_ok =
          C.is_crashed cl home
          || C.directory_entry cl o = Some host
        in
        let walks_ok =
          List.for_all
            (fun from ->
              match C.chain_walk cl ~from o with
              | Some h, _ -> h = host
              | None, _ -> true (* no trail from this node *))
            (live_nodes ())
        in
        dir_ok && walks_ok)
    !objects

let prop_churn =
  QCheck.Test.make ~name:"directory agrees with chain walks under churn"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 10_000))
    churn_agrees

(* two inputs the property once drew and failed: a shard rebuilt on a
   restarted node stamped its entries with that node's clock, which a
   later publish from a host whose clock lagged could not beat *)
let test_churn_rebuild_stamps () =
  List.iter
    (fun seed ->
      if not (churn_agrees seed) then
        Alcotest.failf "input %d: directory and chain walks disagree" seed)
    [ 1766; 6486 ]

(* ------------------------------------------------------------------ *)
(* the new traffic, pinned *)

(* The location-directory workload — group transfers, directory
   publishes and lookups, hint fanout — pinned to the traffic the
   sharded engine's last release put on the wire (identical there at
   shards 1, 2 and 4). *)
let test_traffic_pinned () =
  let r =
    W.measure_cluster ~flock:3 ~askers:3 ~calls:6 ~rounds:6 ~n_nodes:12
      ~n_objects:60 ()
  in
  check Alcotest.int "digests complete" r.W.cr_expected r.W.cr_result;
  if r.W.cr_group_moves = 0 || r.W.cr_locates = 0 then
    Alcotest.fail "the scenario generated no group or locate traffic";
  check Alcotest.string "traffic"
    "result 63, events 136, time 958260.78333333426, 97 messages, 7739 bytes, \
     18 hops, 7 collapses, 18 directory updates, 18 group objects"
    (Printf.sprintf
       "result %d, events %d, time %.17g, %d messages, %d bytes, %d hops, \
        %d collapses, %d directory updates, %d group objects"
       r.W.cr_result r.W.cr_events r.W.cr_virtual_us r.W.cr_messages
       r.W.cr_bytes r.W.cr_locate_hops r.W.cr_collapses r.W.cr_dir_updates
       r.W.cr_group_objects)

(* group-migration fuzz scenarios, pinned *)
let test_group_fuzz_pinned () =
  check (Alcotest.list Alcotest.string) "outcomes"
    [
      "seed 3: completed: 188736, events 181, time 395144.19829291082, \
       trace bd2fc7636997e735656edfc8aa4df0b5, 2 group moves";
      "seed 11: completed: 163885, events 111, time 508910.25324074086, \
       trace 077d50fb20e4f1599a79cf72a0d11143, 1 group moves";
    ]
    (List.map
       (fun seed ->
         let o = Core.Fuzz.run_seed ~groups:true ~seed () in
         Printf.sprintf "%s, %d group moves" (Pinned.fuzz_outcome o)
           o.Core.Fuzz.f_group_moves)
       [ 3; 11 ])

(* ------------------------------------------------------------------ *)
(* directory off == the defaults, bit for bit *)

let test_off_identity () =
  let run location =
    let cl =
      match location with
      | None -> C.create ~archs:[ A.sparc; A.sun3; A.vax ] ()
      | Some l -> C.create ~location:l ~archs:[ A.sparc; A.sun3; A.vax ] ()
    in
    let buf = Buffer.create 256 in
    C.subscribe_events cl (fun e ->
        Buffer.add_string buf (Core.Events.to_string e);
        Buffer.add_char buf '\n');
    ignore (C.compile_and_load cl ~name:"dir" src);
    let cell = C.create_object cl ~node:1 ~class_name:"Cell" in
    let caller = C.create_object cl ~node:0 ~class_name:"Caller" in
    let tid =
      C.spawn cl ~node:0 ~target:caller ~op:"call"
        ~args:[ V.Vref cell; V.Vint 5l ]
    in
    let r = C.run_until_result cl tid in
    ( r,
      Buffer.contents buf,
      Enet.Netsim.messages_sent (C.network cl),
      Enet.Netsim.bytes_sent (C.network cl),
      C.events_processed cl )
  in
  let r0, t0, m0, b0, e0 = run None in
  let r1, t1, m1, b1, e1 = run (Some C.Loc_off) in
  if r0 <> r1 then Alcotest.fail "results differ";
  check Alcotest.string "trace bit-identical" t0 t1;
  check Alcotest.int "messages" m0 m1;
  check Alcotest.int "bytes" b0 b1;
  check Alcotest.int "events" e0 e1;
  (* and the directory mode only ADDS events — the result is unchanged *)
  let r2, _, _, _, _ = run (Some C.Loc_directory) in
  if r0 <> r2 then Alcotest.fail "location mode changed the program result"

let suites =
  [
    ( "directory",
      [
        Alcotest.test_case "partition map is deterministic" `Quick
          test_partition_deterministic;
        Alcotest.test_case "50-migration tour collapses to one hop" `Quick
          test_ping_pong_collapse;
        QCheck_alcotest.to_alcotest prop_intern_order;
        QCheck_alcotest.to_alcotest prop_churn;
        Alcotest.test_case "rebuilt shards stamp each entry with its host's clock"
          `Quick test_churn_rebuild_stamps;
        Alcotest.test_case "new traffic pinned" `Slow test_traffic_pinned;
        Alcotest.test_case "group fuzz outcomes pinned" `Slow
          test_group_fuzz_pinned;
        Alcotest.test_case "directory off is bit-identical to defaults" `Quick
          test_off_identity;
      ] );
  ]
