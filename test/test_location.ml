(* The location-search protocol: when forwarding chains are broken (a
   stale or collected proxy), the node probes every other machine —
   Emerald's broadcast search — parks the invocation, and re-routes it
   when an answer comes back. *)

module A = Isa.Arch
module V = Ert.Value

let check = Alcotest.check

let src =
  {|
object Target
  var v : int <- 0
  operation poke[] -> [r : int]
    v <- v + 1
    r <- v * 100 + thisnode
  end poke
end Target

object Mover
  operation relocate[t : Target, dest : int]
    move t to dest
  end relocate
end Mover

object Caller
  operation call[t : Target] -> [r : int]
    r <- t.poke[]
  end call
end Caller
|}

let test_search_after_collected_proxy () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax; A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"loc" src);
  (* the target is born on node 1 and moved to node 2 *)
  let target = Core.Cluster.create_object cl ~node:1 ~class_name:"Target" in
  let mover = Core.Cluster.create_object cl ~node:1 ~class_name:"Mover" in
  let mt =
    Core.Cluster.spawn cl ~node:1 ~target:mover ~op:"relocate"
      ~args:[ V.Vref target; V.Vint 2l ]
  in
  Core.Cluster.run cl;
  ignore (Core.Cluster.result cl mt);
  check (Alcotest.option Alcotest.int) "target on node 2" (Some 2)
    (Core.Cluster.where_is cl target);
  (* collect node 1: nothing references the forwarding proxy any more *)
  Ert.Gc.collect (Ert.Gc.create (Core.Cluster.kernel cl 1)) ~extra_roots:[ mover ]
    ~extra_addrs:[];
  check (Alcotest.option Alcotest.int) "proxy collected" None
    (Option.map (fun _ -> 1) (Ert.Kernel.proxy_of (Core.Cluster.kernel cl 1) target));
  (* node 0 knows only the creator hint (node 1), which now knows nothing:
     the invocation must trigger a search and still succeed *)
  let caller = Core.Cluster.create_object cl ~node:0 ~class_name:"Caller" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:caller ~op:"call" ~args:[ V.Vref target ]
  in
  let probes_before = Enet.Netsim.messages_sent (Core.Cluster.network cl) in
  match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) ->
    check Alcotest.int "poked on node 2" 102 (Int32.to_int v);
    let traffic = Enet.Netsim.messages_sent (Core.Cluster.network cl) - probes_before in
    (* invoke + probes + answers + re-routed invoke + reply: > 4 messages *)
    if traffic <= 4 then
      Alcotest.failf "expected search traffic, saw only %d messages" traffic
  | _ -> Alcotest.fail "no result"

let test_search_object_truly_lost () =
  let cl = Core.Cluster.create ~archs:[ A.sparc; A.vax; A.sun3 ] () in
  ignore (Core.Cluster.compile_and_load cl ~name:"loc" src);
  let target = Core.Cluster.create_object cl ~node:1 ~class_name:"Target" in
  let mover = Core.Cluster.create_object cl ~node:1 ~class_name:"Mover" in
  let mt =
    Core.Cluster.spawn cl ~node:1 ~target:mover ~op:"relocate"
      ~args:[ V.Vref target; V.Vint 2l ]
  in
  Core.Cluster.run cl;
  ignore (Core.Cluster.result cl mt);
  Ert.Gc.collect (Ert.Gc.create (Core.Cluster.kernel cl 1)) ~extra_roots:[ mover ]
    ~extra_addrs:[];
  (* the object's host dies: every probe comes back negative *)
  Core.Cluster.crash_node cl 2;
  let caller = Core.Cluster.create_object cl ~node:0 ~class_name:"Caller" in
  let tid =
    Core.Cluster.spawn cl ~node:0 ~target:caller ~op:"call" ~args:[ V.Vref target ]
  in
  match Core.Cluster.run_until_result cl tid with
  | _ -> Alcotest.fail "the object is gone; the call cannot succeed"
  | exception Core.Cluster.Thread_unavailable reason ->
    if not (String.length reason > 0) then Alcotest.fail "empty reason"

let suites =
  [
    ( "location",
      [
        Alcotest.test_case "search finds a moved object" `Quick
          test_search_after_collected_proxy;
        Alcotest.test_case "search reports lost objects" `Quick
          test_search_object_truly_lost;
      ] );
  ]
