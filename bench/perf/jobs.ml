(* The four job workloads.  A job is one fresh single-shard cluster built
   from a program compiled once in set-up, run to quiescence and checked
   against a closed form.  Job [i] of seed [s] draws its inputs from its
   own generator, so it is the same job whatever ran before it. *)

module C = Core.Cluster
module A = Isa.Arch
module E = Core.Events
module V = Ert.Value

type job = {
  cluster : C.t;
  check : unit -> (string, string) result;
      (** after the run: the job's results rendered for the fingerprint,
          or why the job failed *)
}

type t = {
  name : string;
  archs : A.t list;  (** the architectures the program is compiled for *)
  source : string;
  prefix : int;
      (** jobs in the fingerprint prefix: every run executes at least
          these, and their per-job virtual numbers are compared exactly *)
  build : Emc.Compile.program -> Random.State.t -> job;
}

let rng ~seed ~index = Random.State.make [| seed; index |]
let pick rng a = a.(Random.State.int rng (Array.length a))
let vint n = V.Vint (Int32.of_int n)

let int_result cl tid =
  match C.result cl tid with
  | Some (Some (V.Vint v)) -> Some (Int32.to_int v)
  | _ -> None

(* every thread [(tid, label, ok)] finished with a value [ok] accepts; the
   rendered results feed the fingerprint *)
let check_threads cl threads =
  let rec go acc = function
    | [] -> Ok (String.concat "," (List.rev_map string_of_int acc))
    | (tid, label, ok) :: rest -> (
      match int_result cl tid with
      | None -> Error (Printf.sprintf "%s: no result" label)
      | Some r when not (ok r) -> Error (Printf.sprintf "%s: unexpected result %d" label r)
      | Some r -> go (r :: acc) rest)
  in
  go [] threads

(* ------------------------------------------------------------------ *)
(* migrate: Table 1 agents making round trips between seed-chosen nodes *)

let migrate_iters = 30
let migrate_sizes = [| 1; 13; 50 |]

let migrate_pool =
  [| A.sparc; A.sun3; A.hp9000_433; A.hp9000_385; A.vax |]

(* one Agent class per fragment size, renamed so they share a program *)
let sized_agent n =
  let src = Core.Workloads.table1_src_sized ~n_vars:n in
  let head = "object Agent\n" and tail = "end Agent\n" in
  if not (String.starts_with ~prefix:head src && String.ends_with ~suffix:tail src)
  then failwith "table1_src_sized changed shape";
  let body =
    String.sub src (String.length head)
      (String.length src - String.length head - String.length tail)
  in
  Printf.sprintf "object Agent%d\n%send Agent%d\n" n body n

let migrate =
  {
    name = "migrate";
    archs = Array.to_list migrate_pool;
    source = String.concat "" (Array.to_list (Array.map sized_agent migrate_sizes));
    prefix = 100;
    build =
      (fun prog rng ->
        let n = 4 in
        let archs = List.init n (fun _ -> pick rng migrate_pool) in
        let cl = C.create ~wire_impl:Enet.Wire.Blit ~archs () in
        C.load_program cl prog;
        let tids =
          List.init n (fun home ->
              let size = pick rng migrate_sizes in
              let dest = (home + 1 + Random.State.int rng (n - 1)) mod n in
              let agent =
                C.create_object cl ~node:home
                  ~class_name:(Printf.sprintf "Agent%d" size)
              in
              ( C.spawn cl ~node:home ~target:agent ~op:"trip"
                  ~args:[ vint dest; vint migrate_iters ],
                Printf.sprintf "agent %d" home,
                fun us_per_trip -> us_per_trip > 0 ))
        in
        let check () =
          (* every agent makes [iters] round trips of two landed moves *)
          let moves = C.total_counter cl (fun c -> c.E.c_moves_in) in
          if moves <> 2 * n * migrate_iters then
            Error (Printf.sprintf "%d landed moves, expected %d" moves (2 * n * migrate_iters))
          else check_threads cl tids
        in
        { cluster = cl; check });
  }

(* ------------------------------------------------------------------ *)
(* spin: pure dispatch on all three code generators                    *)

let spinner_src =
  {|
object Spinner
  operation spin[rounds : int, spins : int] -> [r : int]
    var i : int <- 0
    var j : int <- 0
    var t : int <- 0
    var u : int <- 0
    var v : int <- 0
    var acc : int <- 0
    loop
      exit when i >= rounds
      i <- i + 1
      j <- 0
      loop
        exit when j >= spins
        j <- j + 1
        t <- acc + j
        u <- t + i
        v <- u - j
        t <- t + v
        acc <- v + t
      end loop
    end loop
    r <- acc
  end spin
end Spinner
|}

(* [Spinner.spin] in 32-bit arithmetic *)
let spin_digest ~rounds ~spins =
  let open Int32 in
  let acc = ref 0l in
  for i = 1 to rounds do
    for j = 1 to spins do
      let i = of_int i and j = of_int j in
      let t = add !acc j in
      let u = add t i in
      let v = sub u j in
      let t = add t v in
      acc := add v t
    done
  done;
  to_int !acc

let four_archs = [ A.sparc; A.sun3; A.hp9000_433; A.vax ]

let spin =
  {
    name = "spin";
    archs = four_archs;
    source = spinner_src;
    prefix = 10;
    build =
      (fun prog rng ->
        let cl = C.create ~archs:four_archs () in
        C.load_program cl prog;
        let tids =
          List.mapi
            (fun node _ ->
              let rounds = 100 + Random.State.int rng 100 in
              let spins = 200 + Random.State.int rng 200 in
              let s = C.create_object cl ~node ~class_name:"Spinner" in
              let expected = spin_digest ~rounds ~spins in
              ( C.spawn cl ~node ~target:s ~op:"spin" ~args:[ vint rounds; vint spins ],
                Printf.sprintf "spinner %d" node,
                fun r -> r = expected ))
            four_archs
        in
        { cluster = cl; check = (fun () -> check_threads cl tids) });
  }

(* ------------------------------------------------------------------ *)
(* churn: allocation under the incremental collector                   *)

let churn_src =
  {|
object Cell
  var v : int <- 0
  operation set[x : int]
    v <- x
  end set
  operation get[] -> [r : int]
    r <- v
  end get
end Cell

object Main
  var keep : Cell <- nil

  operation churn[n : int] -> [r : int]
    var i : int <- 0
    loop
      exit when i >= n
      i <- i + 1
      var tmp : Cell <- new Cell
      tmp.set[i]
      var s : string <- "garbage " + "string"
      if s == "" then
        keep <- tmp
      end if
    end loop
    keep <- new Cell
    keep.set[42]
    r <- keep.get[]
  end churn
end Main
|}

let churn =
  {
    name = "churn";
    archs = four_archs;
    source = churn_src;
    prefix = 20;
    build =
      (fun prog rng ->
        let cl =
          C.create ~gc_mode:C.Gc_incremental ~gc_threshold:(32 * 1024)
            ~archs:four_archs ()
        in
        C.load_program cl prog;
        let tids =
          List.mapi
            (fun node _ ->
              let n = 400 + Random.State.int rng 400 in
              let m = C.create_object cl ~node ~class_name:"Main" in
              ( C.spawn cl ~node ~target:m ~op:"churn" ~args:[ vint n ],
                Printf.sprintf "churn %d" node,
                fun r -> r = 42 ))
            four_archs
        in
        { cluster = cl; check = (fun () -> check_threads cl tids) });
  }

(* ------------------------------------------------------------------ *)
(* locate: remote invocation against a touring flock, 64 nodes         *)

let locate_nodes = 64
let locate_flock = 8
let locate_askers = 16
let locate_calls = 12
let locate_rounds = 12

let locate =
  {
    name = "locate";
    archs = [ A.sparc ];
    source = Core.Workloads.cluster_src;
    prefix = 30;
    build =
      (fun prog rng ->
        let n_nodes = locate_nodes in
        let n_objects = 4000 + Random.State.int rng 2000 in
        let stride = 1 + Random.State.int rng (n_nodes - 1) in
        let cl =
          C.create ~location:C.Loc_directory ~wire_impl:Enet.Wire.Blit
            ~archs:(List.init n_nodes (fun _ -> A.sparc))
            ()
        in
        C.load_program cl prog;
        (* the flock is born on node 0, the cold population round-robin *)
        let flock =
          Array.init locate_flock (fun _ -> C.create_object cl ~node:0 ~class_name:"Cell")
        in
        for i = locate_flock to n_objects - 1 do
          ignore (C.create_object cl ~node:(i mod n_nodes) ~class_name:"Cell")
        done;
        let expected = locate_calls * (locate_calls + 1) / 2 in
        let tids =
          List.init locate_askers (fun a ->
              let node = 1 + (a * (n_nodes - 1) / locate_askers) in
              let chaser = C.create_object cl ~node ~class_name:"Chaser" in
              ( C.spawn cl ~node ~target:chaser ~op:"chase"
                  ~args:[ V.Vref flock.(a mod locate_flock); vint locate_calls ],
                Printf.sprintf "chaser %d" a,
                fun r -> r = expected ))
        in
        (* one group move per balancing point once the previous one has
           landed, [locate_rounds] hops of [stride] nodes *)
        let home = ref 0 and remaining = ref locate_rounds in
        let flock_l = Array.to_list flock in
        C.set_balancer cl ~every_us:400.0 (fun () ->
            if !remaining > 0 then begin
              let k = C.kernel cl !home in
              if List.for_all (fun o -> Ert.Kernel.find_object k o <> None) flock_l then begin
                decr remaining;
                let dest = (!home + stride) mod n_nodes in
                C.group_move cl ~node:!home ~dest flock_l;
                home := dest
              end
            end);
        { cluster = cl; check = (fun () -> check_threads cl tids) });
  }

let all = [ migrate; spin; churn; locate ]
let find name = List.find_opt (fun w -> w.name = name) all
