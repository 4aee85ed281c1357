(* Helpers for the tests pinned to values recorded before the sharded
   engine was deleted, where 1, 2 and 4 shards agreed on each: a digest
   for long traces, the multi-agent ring tour, and one-line fuzz
   outcomes. *)

module V = Ert.Value
module C = Core.Cluster

let digest s = Digest.to_hex (Digest.string s)

(* The multi-agent ring tour: one agent per node, each touring the ring
   with its home node as phase offset, so the agents occupy pairwise
   distinct nodes at every hop and spin between moves.  The
   distinct-nodes premise needs a homogeneous cluster: equal node speeds
   keep the agents in lockstep. *)
let ring_tour_src =
  {|
object Agent
  operation tour[n : int, hops : int, spins : int] -> [r : int]
    var home : int <- thisnode
    var i : int <- 0
    var j : int <- 0
    var dest : int <- 0
    var acc : int <- 0
    loop
      exit when i >= hops
      i <- i + 1
      dest <- home + i - ((home + i) / n) * n
      move self to dest
      j <- 0
      loop
        exit when j >= spins
        j <- j + 1
        acc <- acc + j - (j / 2) * 2
      end loop
    end loop
    move self to home
    r <- acc + home - home
  end tour
end Agent
|}

(* Run the tour to quiescence on [n_nodes] SPARC nodes (quantum 20) and
   summarise it in one line: summed agent results, events, collections,
   final virtual time and, with [subscribe], the digest of every bus
   event rendered in order.  [on_event] also listens to the bus. *)
let ring_tour ?gc_threshold ?gc_mode ?gc_budget ?on_event ~subscribe ~n_nodes
    ~hops ~spins () =
  let cl =
    C.create ~quantum:20 ?gc_threshold ?gc_mode ?gc_budget
      ~archs:(List.init n_nodes (fun _ -> Isa.Arch.sparc))
      ()
  in
  ignore (C.compile_and_load cl ~name:"ptour" ring_tour_src);
  let log = Buffer.create 4096 in
  if subscribe || on_event <> None then
    C.subscribe_events cl (fun ev ->
        Option.iter (fun f -> f ev) on_event;
        if subscribe then begin
          Buffer.add_string log (Core.Events.to_string ev);
          Buffer.add_char log '\n'
        end);
  let tids =
    List.init n_nodes (fun a ->
        let agent = C.create_object cl ~node:a ~class_name:"Agent" in
        C.spawn cl ~node:a ~target:agent ~op:"tour"
          ~args:
            [
              V.Vint (Int32.of_int n_nodes);
              V.Vint (Int32.of_int hops);
              V.Vint (Int32.of_int spins);
            ])
  in
  C.run cl;
  let result =
    List.fold_left
      (fun acc tid ->
        match C.result cl tid with
        | Some (Some (V.Vint v)) -> acc + Int32.to_int v
        | _ -> Alcotest.fail "agent did not return an int")
      0 tids
  in
  ( cl,
    Printf.sprintf "result %d, events %d, collections %d, time %.17g%s" result
      (C.events_processed cl) (C.collections cl) (C.global_time_us cl)
      (if subscribe then ", trace " ^ digest (Buffer.contents log) else "") )

let verdict_string = function
  | Core.Fuzz.Completed v -> "completed: " ^ v
  | Core.Fuzz.Unavailable r -> "unavailable: " ^ r
  | Core.Fuzz.Stuck r -> "stuck: " ^ r
  | Core.Fuzz.Invariant vs ->
    Printf.sprintf "invariant (%d violations)" (List.length vs)

(* one fuzz outcome in one line: verdict, events, final virtual time and
   the digest of the kept trace tail *)
let fuzz_outcome (o : Core.Fuzz.outcome) =
  Printf.sprintf "seed %d: %s, events %d, time %.17g, trace %s" o.Core.Fuzz.f_seed
    (verdict_string o.Core.Fuzz.f_verdict)
    o.Core.Fuzz.f_events o.Core.Fuzz.f_virtual_us
    (digest (String.concat "\n" o.Core.Fuzz.f_trace))
