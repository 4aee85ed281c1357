(* The heavyweight property test: generate random programs that mix 32-bit
   arithmetic with migrations at random points across a random
   heterogeneous cluster, and check the final value against a reference
   evaluation with OCaml int32 semantics.

   If activation-record translation dropped a value, byte-swapped a slot
   incorrectly, mislaid a stop, or resumed at the wrong PC, arithmetic
   downstream of a move would diverge. *)

module A = Isa.Arch
module V = Ert.Value

type op =
  | Assign of int * int32  (* vi <- literal *)
  | Arith of int * int * Isa.Insn.binop * int  (* vi <- vj op vk *)
  | Move_to of int  (* move self to node *)

let n_vars = 6

let render_program ops =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "object Agent\n  operation go[] -> [r : int]\n";
  for i = 0 to n_vars - 1 do
    Buffer.add_string buf (Printf.sprintf "    var v%d : int <- %d\n" i (i + 1))
  done;
  List.iter
    (fun op ->
      match op with
      | Assign (i, v) -> Buffer.add_string buf (Printf.sprintf "    v%d <- %ld\n" i v)
      | Arith (i, j, o, k) ->
        let sym =
          match o with
          | Isa.Insn.Add -> "+"
          | Isa.Insn.Sub -> "-"
          | Isa.Insn.Mul -> "*"
          | Isa.Insn.Div -> "/"
          | Isa.Insn.Mod -> "%"
          | _ -> assert false
        in
        (* guard division so it can never trap *)
        if o = Isa.Insn.Div || o = Isa.Insn.Mod then
          (* the divisor lies in (-999, 999) + 1000001: always positive *)
          Buffer.add_string buf
            (Printf.sprintf "    v%d <- v%d %s (v%d %% 1000 * v%d %% 1000 + 1000001)\n" i
               j sym k k)
        else Buffer.add_string buf (Printf.sprintf "    v%d <- v%d %s v%d\n" i j sym k)
      | Move_to n -> Buffer.add_string buf (Printf.sprintf "    move self to %d\n" n))
    ops;
  Buffer.add_string buf "    r <- v0";
  for i = 1 to n_vars - 1 do
    Buffer.add_string buf (Printf.sprintf " + v%d" i)
  done;
  Buffer.add_string buf "\n  end go\nend Agent\n";
  Buffer.contents buf

(* reference evaluation with the same wrap-around int32 semantics *)
let reference ops =
  let v = Array.init n_vars (fun i -> Int32.of_int (i + 1)) in
  List.iter
    (fun op ->
      match op with
      | Assign (i, x) -> v.(i) <- x
      | Arith (i, j, o, k) -> (
        match o with
        | Isa.Insn.Add -> v.(i) <- Int32.add v.(j) v.(k)
        | Isa.Insn.Sub -> v.(i) <- Int32.sub v.(j) v.(k)
        | Isa.Insn.Mul -> v.(i) <- Int32.mul v.(j) v.(k)
        | Isa.Insn.Div | Isa.Insn.Mod ->
          (* mirror the rendered guard exactly, with the source language's
             left-associative same-precedence * and %:
             ((vk % 1000) * vk) % 1000 + 1000001 *)
          let d =
            Int32.add
              (Int32.rem (Int32.mul (Int32.rem v.(k) 1000l) v.(k)) 1000l)
              1000001l
          in
          v.(i) <- (if o = Isa.Insn.Div then Int32.div v.(j) d else Int32.rem v.(j) d)
        | _ -> assert false)
      | Move_to _ -> ())
    ops;
  Array.fold_left Int32.add 0l v

let ops_gen n_nodes =
  let open QCheck.Gen in
  let var = int_range 0 (n_vars - 1) in
  let op =
    frequency
      [
        (2, map2 (fun i x -> Assign (i, Int32.of_int x)) var (int_range (-10000) 10000));
        ( 5,
          var >>= fun i ->
          var >>= fun j ->
          var >>= fun k ->
          oneofl
            [ Isa.Insn.Add; Isa.Insn.Sub; Isa.Insn.Mul; Isa.Insn.Div; Isa.Insn.Mod ]
          >>= fun o -> return (Arith (i, j, o, k)) );
        (2, map (fun n -> Move_to n) (int_range 0 (n_nodes - 1)));
      ]
  in
  list_size (int_range 3 14) op

let cluster_archs_gen =
  let open QCheck.Gen in
  list_size (int_range 2 4) (oneofl A.all)

let scenario_gen =
  let open QCheck.Gen in
  cluster_archs_gen >>= fun archs ->
  ops_gen (List.length archs) >>= fun ops -> return (archs, ops)

let run_scenario (archs, ops) =
  let src = render_program ops in
  let cl = Core.Cluster.create ~archs () in
  ignore (Core.Cluster.compile_and_load cl ~name:"rand" src);
  let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
  let tid = Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"go" ~args:[] in
  match Core.Cluster.run_until_result cl tid with
  | Some (V.Vint v) -> v
  | _ -> QCheck.Test.fail_report "no int result"

let prop_random_migrations =
  QCheck.Test.make ~name:"random programs with random migrations match reference"
    ~count:60 (QCheck.make scenario_gen) (fun scenario ->
      let _, ops = scenario in
      Int32.equal (run_scenario scenario) (reference ops))

(* same scenarios, compiled with the peephole pass *)
let prop_random_migrations_optimized =
  QCheck.Test.make ~name:"random migrations match reference under -O1" ~count:30
    (QCheck.make scenario_gen) (fun (archs, ops) ->
      let src = render_program ops in
      let cl = Core.Cluster.create ~archs () in
      ignore (Core.Cluster.compile_and_load ~levels:[ Emc.Opt.O1 ] cl ~name:"rand" src);
      let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
      let tid = Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"go" ~args:[] in
      match Core.Cluster.run_until_result cl tid with
      | Some (V.Vint v) -> Int32.equal v (reference ops)
      | _ -> false)

let suites =
  [
    ( "random-migration",
      [
        QCheck_alcotest.to_alcotest prop_random_migrations;
        QCheck_alcotest.to_alcotest prop_random_migrations_optimized;
      ] );
  ]
