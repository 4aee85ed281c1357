(* Single-node end-to-end tests: compile a program, load it into a kernel,
   run native code on the virtual CPU, and check the result — on every
   architecture.  The cross-architecture agreement tests are the
   foundation the migration tests build on: if the four machines didn't
   compute the same results from the same source, migration equivalence
   would be meaningless. *)

module A = Isa.Arch

let check = Alcotest.check

exception Deadlock

let run_program ?(fuel = 200_000) arch src ~cls ~op ~args =
  let prog = Emc.Compile.compile_exn ~name:"t" ~archs:[ arch ] src in
  let k = Ert.Kernel.create ~node_id:0 ~arch () in
  Ert.Kernel.load_program k prog;
  let main =
    match Emc.Compile.find_class prog cls with
    | Some c -> c
    | None -> Alcotest.failf "no class %s" cls
  in
  let addr = Ert.Kernel.create_object k ~class_index:main.Emc.Compile.cc_index in
  let tid = Ert.Kernel.spawn_root k ~target_addr:addr ~method_name:op ~args in
  let rec loop n =
    if n > fuel then Alcotest.fail "kernel made no progress";
    match Ert.Kernel.root_result k tid with
    | Some r -> (r, Ert.Kernel.output k)
    | None ->
      if not (Ert.Kernel.has_ready k) then raise Deadlock;
      (match Ert.Kernel.step k with
      | [] -> ()
      | _ :: _ -> Alcotest.fail "unexpected cross-node action on a single node");
      loop (n + 1)
  in
  loop 0

let run_all ?fuel src ~cls ~op ~args = List.map (fun arch -> (arch, run_program ?fuel arch src ~cls ~op ~args)) A.all

let expect_int ?fuel src ~cls ~op ~args expected =
  List.iter
    (fun (arch, (result, _)) ->
      match result with
      | Some (Ert.Value.Vint v) ->
        check Alcotest.int (arch.A.id ^ " result") expected (Int32.to_int v)
      | other ->
        Alcotest.failf "%s: expected int result, got %s" arch.A.id
          (match other with
          | Some v -> Format.asprintf "%a" Ert.Value.pp v
          | None -> "none"))
    (run_all ?fuel src ~cls ~op ~args)

let expect_output ?fuel src ~cls ~op ~args expected =
  List.iter
    (fun (arch, (_, out)) -> check Alcotest.string (arch.A.id ^ " output") expected out)
    (run_all ?fuel src ~cls ~op ~args)

(* ---------------------------------------------------------------------- *)

let test_arith () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[] -> [r : int]
    var a : int <- 6
    var b : int <- 7
    r <- a * b + 10 / 2 - 4 % 3
  end start
end Main
|}
    46

let test_loop_sum () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[] -> [r : int]
    var i : int <- 0
    var sum : int <- 0
    loop
      exit when i >= 100
      i <- i + 1
      sum <- sum + i
    end loop
    r <- sum
  end start
end Main
|}
    5050

let test_while () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[] -> [r : int]
    var n : int <- 10
    var f : int <- 1
    while n > 1
      f <- f * n
      n <- n - 1
    end while
    r <- f
  end start
end Main
|}
    3628800

let test_if_chain () =
  expect_int ~cls:"Main" ~op:"start" ~args:[ Ert.Value.Vint 15l ]
    {|
object Main
  operation start[x : int] -> [r : int]
    if x < 10 then
      r <- 1
    elseif x < 20 then
      r <- 2
    else
      r <- 3
    end if
  end start
end Main
|}
    2

let test_short_circuit () =
  (* the right operand of 'and' must not run when the left is false:
     division by zero would trap *)
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[] -> [r : int]
    var zero : int <- 0
    var x : int <- 5
    if x < 3 and 10 / zero > 1 then
      r <- 1
    else
      r <- 2
    end if
    if x > 3 or 10 / zero > 1 then
      r <- r + 10
    end if
  end start
end Main
|}
    12

let test_invocation () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Adder
  operation add[a : int, b : int] -> [r : int]
    r <- a + b
  end add
end Adder

object Main
  operation start[] -> [r : int]
    var a : Adder <- new Adder
    r <- a.add[19, 23]
  end start
end Main
|}
    42

let test_fields_and_initially () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Counter
  var count : int <- 0
  var step : int <- 1

  operation initially[s : int]
    step <- s
  end initially

  operation tick[] -> [r : int]
    count <- count + step
    r <- count
  end tick
end Counter

object Main
  operation start[] -> [r : int]
    var c : Counter <- new Counter[5]
    c.tick[]
    c.tick[]
    r <- c.tick[]
  end start
end Main
|}
    15

let test_recursion () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Fib
  operation fib[n : int] -> [r : int]
    if n < 2 then
      r <- n
    else
      r <- self.fib[n - 1] + self.fib[n - 2]
    end if
  end fib
end Fib

object Main
  operation start[] -> [r : int]
    var f : Fib <- new Fib
    r <- f.fib[15]
  end start
end Main
|}
    610

let test_reals () =
  expect_output ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[]
    var x : real <- 1.5
    var y : real <- 2.25
    print[x + y]
    print[x * y]
    print[y - x, " ", y / x]
    var i : int <- 3
    print[x + i]
  end start
end Main
|}
    "3.75\n3.375\n0.75 1.5\n4.5\n"

let test_strings () =
  expect_output ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[]
    var a : string <- "hello"
    var b : string <- a + ", " + "world"
    print[b]
    if b == "hello, world" then
      print["equal"]
    end if
    if a != b then
      print["different"]
    end if
  end start
end Main
|}
    "hello, world\nequal\ndifferent\n"

let test_print_mixed () =
  expect_output ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[]
    print["n=", 42, " b=", true, " nil=", nil]
  end start
end Main
|}
    "n=42 b=true nil=nil\n"

let test_monitor_single_thread () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Account
  var balance : int <- 0

  monitor operation deposit[n : int] -> [r : int]
    balance <- balance + n
    r <- balance
  end deposit
end Account

object Main
  operation start[] -> [r : int]
    var a : Account <- new Account
    a.deposit[10]
    a.deposit[20]
    r <- a.deposit[12]
  end start
end Main
|}
    42

let test_nested_objects () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Cell
  var value : int <- 0
  operation set[v : int]
    value <- v
  end set
  operation get[] -> [r : int]
    r <- value
  end get
end Cell

object Pair
  var a : Cell <- nil
  var b : Cell <- nil
  operation initially[]
    a <- new Cell
    b <- new Cell
  end initially
  operation fill[x : int, y : int]
    a.set[x]
    b.set[y]
  end fill
  operation sum[] -> [r : int]
    r <- a.get[] + b.get[]
  end sum
end Pair

object Main
  operation start[] -> [r : int]
    var p : Pair <- new Pair
    p.fill[20, 22]
    r <- p.sum[]
  end start
end Main
|}
    42

let test_thisnode_locate () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[] -> [r : int]
    r <- thisnode + locate[self]
  end start
end Main
|}
    0

let test_negatives () =
  expect_int ~cls:"Main" ~op:"start" ~args:[]
    {|
object Main
  operation start[] -> [r : int]
    var a : int <- -7
    var b : int <- 0 - 3
    r <- -(a + b) - 4
  end start
end Main
|}
    6

let test_div_zero_traps () =
  List.iter
    (fun arch ->
      match
        run_program arch ~cls:"Main" ~op:"start" ~args:[]
          {|
object Main
  operation start[] -> [r : int]
    var z : int <- 0
    r <- 1 / z
  end start
end Main
|}
      with
      | _ -> Alcotest.failf "%s: expected a runtime error" arch.A.id
      | exception Ert.Kernel.Runtime_error _ -> ())
    A.all

let test_deep_recursion_overflows () =
  List.iter
    (fun arch ->
      match
        run_program ~fuel:2_000_000 arch ~cls:"Main" ~op:"start" ~args:[]
          {|
object R
  operation down[n : int] -> [r : int]
    r <- self.down[n + 1]
  end down
end R
object Main
  operation start[] -> [r : int]
    var x : R <- new R
    r <- x.down[0]
  end start
end Main
|}
      with
      | _ -> Alcotest.failf "%s: expected stack overflow" arch.A.id
      | exception Ert.Kernel.Runtime_error msg ->
        if not (String.length msg > 0) then Alcotest.fail "empty error")
    A.all

(* Random arithmetic programs must compute identical integer results on all
   four machines — the data may be byte swapped in memory, the code
   different, but the semantics identical. *)
let random_expr_gen =
  let open QCheck.Gen in
  let rec expr depth =
    if depth = 0 then
      oneof [ map (fun n -> string_of_int n) (int_range (-50) 50); return "x"; return "y" ]
    else
      let sub = expr (depth - 1) in
      oneof
        [
          map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
          map2 (fun a b -> Printf.sprintf "(%s / (%s * %s + 1))" a b b) sub sub;
        ]
  in
  expr 3

let test_cross_arch_equivalence =
  QCheck.Test.make ~name:"random expressions agree on all architectures" ~count:40
    (QCheck.make random_expr_gen) (fun e ->
      let src =
        Printf.sprintf
          {|
object Main
  operation start[x : int, y : int] -> [r : int]
    r <- %s
  end start
end Main
|}
          e
      in
      let results =
        List.map
          (fun arch ->
            match run_program arch src ~cls:"Main" ~op:"start" ~args:[ Ert.Value.Vint 11l; Ert.Value.Vint (-3l) ] with
            | Some (Ert.Value.Vint v), _ -> v
            | _ -> QCheck.Test.fail_report "non-int result"
            | exception Ert.Kernel.Runtime_error _ -> 0x7FFFFFFFl
            (* traps (division by zero) must agree too *))
          A.all
      in
      match results with
      | r :: rest -> List.for_all (Int32.equal r) rest
      | [] -> true)

(* The kernel's PC-to-stop lookup, on every class of the compiler
   suite's counter program (a monitor, and a loop that invokes) at -O0
   and -O2 on every architecture: the canonical and alternate PC of
   every visible stop resolve to that class and stop, the bridge
   fragment that resumes an elided stop resolves back to it, and the
   template finds every stop by its id.  Every other instruction
   boundary (exit-only and elided stop PCs among them) and the first PC
   past each image resolve to none. *)
let test_stop_at_pc () =
  let module K = Ert.Kernel in
  let module B = Emc.Busstop in
  let alts = ref 0 and bridged = ref 0 and misses = ref 0 and unindexed = ref 0 in
  List.iter
    (fun arch ->
      List.iter
        (fun level ->
          let prog =
            Emc.Compile.compile_exn ~levels:[ level ] ~name:"t" ~archs:[ arch ]
              Test_compiler.counter_src
          in
          let k = K.create ~node_id:0 ~arch () in
          K.set_opt_level k level;
          K.load_program k prog;
          Array.iter
            (fun (cc : Emc.Compile.compiled_class) ->
              let ci = cc.Emc.Compile.cc_index in
              let lc = K.loaded_class k ci in
              let base = lc.K.lc_image.Isa.Text.base in
              let expect what pc (e : B.entry) =
                let where =
                  Printf.sprintf "%s -%s %s stop %d %s" arch.A.id
                    (Emc.Opt.to_string level) cc.Emc.Compile.cc_name e.B.be_id what
                in
                match K.stop_at_pc k pc with
                | Some (lc', e') ->
                  check Alcotest.int (where ^ ": class") ci
                    lc'.K.lc_class.Emc.Compile.cc_index;
                  check Alcotest.int (where ^ ": stop") e.B.be_id e'.B.be_id
                | None -> Alcotest.failf "%s: %#x is no stop" where pc
              in
              let miss what pc =
                match K.stop_at_pc k pc with
                | None -> incr misses
                | Some (_, e') ->
                  Alcotest.failf "%s -%s %s: %s %#x resolves to stop %d" arch.A.id
                    (Emc.Opt.to_string level) cc.Emc.Compile.cc_name what pc e'.B.be_id
              in
              Array.iter
                (fun (e : B.entry) ->
                  if e.B.be_elided then begin
                    incr bridged;
                    expect "bridge" (K.resume_abs k ~class_index:ci e) e
                  end
                  else if not e.B.be_exit_only then begin
                    expect "pc" (base + e.B.be_pc) e;
                    match e.B.be_alt_pc with
                    | Some alt ->
                      incr alts;
                      expect "alt pc" (base + alt) e
                    | None -> ()
                  end)
                lc.K.lc_stops.B.bt_entries;
              (* every instruction boundary that no visible stop names
                 (an exit-only or elided stop's PC among them), and the
                 first PC past the image, resolve to no stop: a bisection
                 off by one would answer a neighbouring stop *)
              let visible = Hashtbl.create 16 in
              Array.iter
                (fun (e : B.entry) ->
                  if not (e.B.be_elided || e.B.be_exit_only) then begin
                    Hashtbl.replace visible e.B.be_pc ();
                    Option.iter (fun alt -> Hashtbl.replace visible alt ()) e.B.be_alt_pc
                  end)
                lc.K.lc_stops.B.bt_entries;
              Array.iter
                (fun (e : B.entry) ->
                  if (e.B.be_elided || e.B.be_exit_only) && not (Hashtbl.mem visible e.B.be_pc)
                  then begin
                    incr unindexed;
                    miss "unindexed stop pc" (base + e.B.be_pc)
                  end)
                lc.K.lc_stops.B.bt_entries;
              let code = lc.K.lc_code in
              Array.iter
                (fun off -> if not (Hashtbl.mem visible off) then miss "boundary" (base + off))
                code.Isa.Code.offsets;
              miss "past the image" (base + code.Isa.Code.byte_size);
              let ct = cc.Emc.Compile.cc_template in
              for i = 0 to ct.Emc.Template.ct_nstops - 1 do
                check Alcotest.int
                  (Printf.sprintf "%s: stop_by_id %d" cc.Emc.Compile.cc_name i)
                  i (Emc.Template.stop_by_id ct i).Emc.Template.st_id
              done)
            prog.Emc.Compile.p_classes)
        [ Emc.Opt.O0; Emc.Opt.O2 ])
    A.all;
  if !alts = 0 then Alcotest.fail "no stop has an alternate PC";
  if !bridged = 0 then Alcotest.fail "no stop was elided at -O2";
  if !unindexed = 0 then Alcotest.fail "no exit-only or elided stop PC was checked";
  if !misses = 0 then Alcotest.fail "no miss was checked"

(* ----------------------------------------------------------------------- *)
(* the OID table *)

(* a narrow key range: six serials of three creators (the first and the
   last node id), two code OIDs and two bridge-fragment OIDs, which are
   negative.  Tables start at four keys (eight index cells), so probes
   collide, runs wrap past the last cell, and every table grows *)
let oid_keys =
  Array.of_list
    (List.concat_map
       (fun node_id -> List.init 6 (fun serial -> Ert.Oid.fresh_data ~node_id ~serial))
       [ 0; 1; Ert.Oid.max_nodes - 1 ]
    @ [ 1l; 2l; -1l; -2l ])

type oid_op =
  | Put of int * int  (* key index, value *)
  | Drop of int

let oid_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Put (i, v) -> Printf.sprintf "replace %s %d" (Ert.Oid.to_string oid_keys.(i)) v
             | Drop i -> Printf.sprintf "remove %s" (Ert.Oid.to_string oid_keys.(i)))
           ops))
    QCheck.Gen.(
      let key = 0 -- (Array.length oid_keys - 1) in
      list_size (1 -- 120)
        (frequency [ (3, map2 (fun i v -> Put (i, v)) key (0 -- 999)); (2, map (fun i -> Drop i) key) ]))

(* after every operation, each key's [find_opt], [mem], [find] and [slot]
   agree with a Hashtbl reference map, and [iter] and [fold] list the
   bindings in the order of a list model: a new key appends, and a
   removal moves the last binding into the removed one's place *)
let oid_table_prop =
  QCheck.Test.make ~count:500 ~name:"OID table == a reference map and a slot-order model"
    oid_ops (fun ops ->
      let t = Ert.Oid_table.create ~capacity:4 ~dummy:(-1) () in
      let reference = Hashtbl.create 16 in
      let order = ref [||] in
      let position k =
        let rec go s = if s = Array.length !order then -1 else if fst !order.(s) = k then s else go (s + 1) in
        go 0
      in
      List.for_all
        (fun op ->
          (match op with
          | Put (i, v) ->
            let k = oid_keys.(i) in
            Ert.Oid_table.replace t k v;
            Hashtbl.replace reference k v;
            let s = position k in
            if s >= 0 then !order.(s) <- (k, v) else order := Array.append !order [| (k, v) |]
          | Drop i ->
            let k = oid_keys.(i) in
            Ert.Oid_table.remove t k;
            Hashtbl.remove reference k;
            let s = position k in
            if s >= 0 then begin
              let last = Array.length !order - 1 in
              !order.(s) <- !order.(last);
              order := Array.sub !order 0 last
            end);
          let listed = ref [] in
          Ert.Oid_table.iter (fun k v -> listed := (k, v) :: !listed) t;
          Array.for_all
            (fun k ->
              let expected = Hashtbl.find_opt reference k in
              Ert.Oid_table.find_opt t k = expected
              && Ert.Oid_table.mem t k = Option.is_some expected
              && Ert.Oid_table.find t k = Option.value expected ~default:(-1)
              && Ert.Oid_table.slot t k = position k)
            oid_keys
          && Ert.Oid_table.length t = Hashtbl.length reference
          && List.rev !listed = Array.to_list !order
          && List.rev (Ert.Oid_table.fold (fun k v acc -> (k, v) :: acc) t [])
             = Array.to_list !order)
        ops)

let suites =
  [
    ( "runtime.exec",
      [
        Alcotest.test_case "arithmetic" `Quick test_arith;
        Alcotest.test_case "loop sum" `Quick test_loop_sum;
        Alcotest.test_case "while factorial" `Quick test_while;
        Alcotest.test_case "if chains" `Quick test_if_chain;
        Alcotest.test_case "short-circuit and/or" `Quick test_short_circuit;
        Alcotest.test_case "invocation" `Quick test_invocation;
        Alcotest.test_case "fields and initially" `Quick test_fields_and_initially;
        Alcotest.test_case "recursion" `Quick test_recursion;
        Alcotest.test_case "reals" `Quick test_reals;
        Alcotest.test_case "strings" `Quick test_strings;
        Alcotest.test_case "print mixed" `Quick test_print_mixed;
        Alcotest.test_case "monitor, single thread" `Quick test_monitor_single_thread;
        Alcotest.test_case "nested objects" `Quick test_nested_objects;
        Alcotest.test_case "thisnode/locate" `Quick test_thisnode_locate;
        Alcotest.test_case "negatives" `Quick test_negatives;
        Alcotest.test_case "division by zero traps" `Quick test_div_zero_traps;
        Alcotest.test_case "stack overflow" `Quick test_deep_recursion_overflows;
        QCheck_alcotest.to_alcotest test_cross_arch_equivalence;
      ] );
    ( "runtime.stops",
      [ Alcotest.test_case "stop_at_pc resolves every stop" `Quick test_stop_at_pc ] );
    ("runtime.oid_table", [ QCheck_alcotest.to_alcotest oid_table_prop ]);
  ]
