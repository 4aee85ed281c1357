(* Tests for the compiler: parsing, type checking, IR, templates, code
   generation for all architectures, and bus-stop table isomorphism. *)

module A = Isa.Arch

let check = Alcotest.check

let counter_src =
  {|
object Counter
  var count : int <- 0
  attached var label : string <- "counts"

  operation inc[n : int] -> [r : int]
    count <- count + n
    r <- count
  end inc

  monitor operation sync_inc[n : int] -> [r : int]
    count <- count + n
    r <- count
  end sync_inc

  operation name[] -> [s : string]
    s <- label
  end name
end Counter

object Main
  operation start[] -> [r : int]
    var c : Counter <- new Counter
    var i : int <- 0
    var sum : int <- 0
    loop
      exit when i >= 10
      i <- i + 1
      sum <- sum + c.inc[i]
    end loop
    r <- sum
  end start
end Main
|}

let compile_all ?name src =
  let name = Option.value name ~default:"test" in
  Emc.Compile.compile_exn ~name ~archs:A.all src

let expect_error src =
  match Emc.Compile.compile ~name:"bad" ~archs:[ A.sparc ] src with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error (e :: _) -> e.Emc.Diag.message
  | Error [] -> Alcotest.fail "empty error list"

(* Parsing ----------------------------------------------------------------- *)

let test_parse_basic () =
  let ast = Emc.Parser.parse_program counter_src in
  check Alcotest.int "two classes" 2 (List.length ast.Emc.Ast.prog_classes);
  let counter = List.hd ast.Emc.Ast.prog_classes in
  check Alcotest.string "name" "Counter" counter.Emc.Ast.c_name;
  check Alcotest.int "fields" 2 (List.length counter.Emc.Ast.c_fields);
  check Alcotest.int "ops" 3 (List.length counter.Emc.Ast.c_ops);
  let sync = List.nth counter.Emc.Ast.c_ops 1 in
  check Alcotest.bool "monitored" true sync.Emc.Ast.op_monitored

let test_parse_precedence () =
  let e = Emc.Parser.parse_expr "1 + 2 * 3" in
  match e.Emc.Ast.e_desc with
  | Emc.Ast.Ebin (Emc.Ast.Badd, _, { Emc.Ast.e_desc = Emc.Ast.Ebin (Emc.Ast.Bmul, _, _); _ })
    -> ()
  | _ -> Alcotest.fail "multiplication must bind tighter than addition"

let test_parse_errors () =
  let bad = [ "object X end Y"; "object X var x int <- 3 end X"; "object X operation f[ end f end X" ] in
  List.iter
    (fun src ->
      match Emc.Parser.parse_program src with
      | _ -> Alcotest.failf "accepted %S" src
      | exception Emc.Diag.Compile_error _ -> ())
    bad

let test_parse_comments () =
  let src = "// leading comment\nobject X\n  operation f[] // trailing\n  end f\nend X" in
  let ast = Emc.Parser.parse_program src in
  check Alcotest.int "one class" 1 (List.length ast.Emc.Ast.prog_classes)

(* Type checking ------------------------------------------------------------ *)

let test_typecheck_ok () = ignore (compile_all counter_src)

let test_typecheck_errors () =
  let cases =
    [
      ("unknown variable", "object X operation f[] y <- 1 end f end X");
      ( "type mismatch",
        "object X operation f[] var y : int <- 1 y <- \"s\" end f end X" );
      ( "bad invocation",
        "object X operation f[] end f end X\nobject Y operation g[] -> [r : int] var x : X <- new X r <- x.nope[] end g end Y"
      );
      ("exit outside loop", "object X operation f[] exit end f end X");
      ( "arity",
        "object X operation f[a : int] end f operation g[] var x : X <- new X x.f[1, 2] end g end X"
      );
      ( "non-literal field init",
        "object X var y : int <- 1 + 2 operation f[] end f end X" );
      ("invoke on int", "object X operation f[] var i : int <- 1 i.g[] end f end X");
      ( "index non-vector",
        "object X operation f[] -> [r : int] var i : int <- 1 r <- i[0] end f end X" );
      ( "vector element type mismatch",
        "object X operation f[] var v : vector[int] <- vector[int, 3] v[0] <- \"s\" end f end X"
      );
      ( "vector index type",
        "object X operation f[] -> [r : int] var v : vector[int] <- vector[int, 3] r <- v[\"a\"] end f end X"
      );
      ( "vector assigned wrong element type",
        "object X operation f[] var v : vector[int] <- vector[bool, 3] end f end X" );
      ( "assign to expression",
        "object X operation f[] var i : int <- 1 (i + 1) <- 2 end f end X" );
    ]
  in
  List.iter (fun (what, src) -> ignore (Alcotest.check Alcotest.pass what () (ignore (expect_error src)))) cases

let test_vector_types_roundtrip () =
  (* nested vector types parse, check and compile on every architecture *)
  ignore
    (compile_all
       {|
object X
  var cache : vector[vector[string]] <- nil
  operation f[v : vector[real]] -> [r : vector[real]]
    cache <- vector[vector[string], 2]
    r <- v
  end f
end X
|})

let test_int_real_promotion () =
  ignore
    (compile_all
       "object X operation f[] -> [r : real] var i : int <- 3 r <- i + 1.5 end f end X")

(* IR ------------------------------------------------------------------------ *)

let test_ir_stops_deterministic () =
  let p1 = compile_all counter_src in
  let p2 = compile_all counter_src in
  Array.iter2
    (fun (c1 : Emc.Compile.compiled_class) (c2 : Emc.Compile.compiled_class) ->
      check Alcotest.int32 "same oid" c1.Emc.Compile.cc_oid c2.Emc.Compile.cc_oid;
      check Alcotest.int "same stop count" c1.cc_ir.Emc.Ir.cl_nstops
        c2.cc_ir.Emc.Ir.cl_nstops)
    p1.Emc.Compile.p_classes p2.Emc.Compile.p_classes

let test_ir_monitor_stops () =
  let p = compile_all counter_src in
  let counter =
    match Emc.Compile.find_class p "Counter" with
    | Some c -> c
    | None -> Alcotest.fail "no Counter"
  in
  let sync = counter.Emc.Compile.cc_ir.Emc.Ir.cl_ops.(1) in
  let kinds =
    Array.to_list (Array.map (fun s -> s.Emc.Ir.sr_kind) sync.Emc.Ir.oi_stops)
  in
  if
    not
      (List.mem Emc.Ir.Sk_mon_enter kinds
      && List.mem Emc.Ir.Sk_mon_dequeue kinds
      && List.mem Emc.Ir.Sk_mon_wake kinds)
  then Alcotest.fail "monitored operation must have enter/dequeue/wake stops"

(* Templates ------------------------------------------------------------------ *)

let test_template_slots () =
  let p = compile_all counter_src in
  let main =
    match Emc.Compile.find_class p "Main" with
    | Some c -> c
    | None -> Alcotest.fail "no Main"
  in
  let start = main.Emc.Compile.cc_template.Emc.Template.ct_ops.(0) in
  (* self + result + c + i + sum need slots; temps may add more *)
  if start.Emc.Template.ot_nslots < 5 then
    Alcotest.failf "expected at least 5 slots, got %d" start.Emc.Template.ot_nslots;
  (* every stop's live slots are within range and class-consistent *)
  Array.iter
    (fun (st : Emc.Template.stop_t) ->
      if st.Emc.Template.st_op = start.Emc.Template.ot_index then
        List.iter
          (fun (es : Emc.Template.entity_slot) ->
            if es.Emc.Template.es_slot < 0 || es.es_slot >= start.Emc.Template.ot_nslots
            then Alcotest.fail "slot out of range";
            let cls = start.Emc.Template.ot_slot_class.(es.es_slot) in
            let expect = Emc.Template.slot_class_of_type es.es_type in
            if cls <> expect then Alcotest.fail "slot class mismatch")
          st.Emc.Template.st_live)
    main.Emc.Compile.cc_template.Emc.Template.ct_stops

let test_template_no_slot_conflicts () =
  (* at any single stop, each slot is owned by at most one entity *)
  let p = compile_all counter_src in
  Array.iter
    (fun (cc : Emc.Compile.compiled_class) ->
      let ct = cc.Emc.Compile.cc_template in
      Array.iter
        (fun (st : Emc.Template.stop_t) ->
          let slots = List.map (fun es -> es.Emc.Template.es_slot) st.Emc.Template.st_live in
          let sorted = List.sort_uniq compare slots in
          if List.length sorted <> List.length slots then
            Alcotest.failf "stop %d of %s.%s: slot owned twice" st.Emc.Template.st_id
              cc.Emc.Compile.cc_name
              ct.Emc.Template.ct_ops.(st.Emc.Template.st_op).Emc.Template.ot_name)
        ct.Emc.Template.ct_stops)
    p.Emc.Compile.p_classes

(* Code generation ------------------------------------------------------------ *)

let test_codegen_validates () =
  let p = compile_all counter_src in
  Array.iter
    (fun (cc : Emc.Compile.compiled_class) ->
      List.iter
        (fun (_, (art : Emc.Compile.arch_artifact)) ->
          Isa.Isa_validate.check_exn art.Emc.Compile.aa_code)
        cc.Emc.Compile.cc_arts)
    p.Emc.Compile.p_classes

let test_codegen_families_differ () =
  let p = compile_all counter_src in
  let main =
    match Emc.Compile.find_class p "Main" with
    | Some c -> c
    | None -> Alcotest.fail "no Main"
  in
  let sizes =
    List.map
      (fun ((id, _), (art : Emc.Compile.arch_artifact)) ->
        (id, art.Emc.Compile.aa_code.Isa.Code.byte_size))
      main.Emc.Compile.cc_arts
  in
  let vax = List.assoc "vax" sizes
  and sun3 = List.assoc "sun3" sizes
  and sparc = List.assoc "sparc" sizes in
  if vax = sun3 && sun3 = sparc then
    Alcotest.fail "code sizes should differ across families";
  (* the two M68k machines share object code size *)
  check Alcotest.int "sun3 = hp433 code size" (List.assoc "hp433" sizes) sun3

(* Bus stops ------------------------------------------------------------------ *)

let test_busstops_isomorphic () =
  let p = compile_all counter_src in
  Array.iter
    (fun (cc : Emc.Compile.compiled_class) ->
      let tables =
        List.map
          (fun ((id, _), art) -> (id, art.Emc.Compile.aa_stops))
          cc.Emc.Compile.cc_arts
      in
      let counts = List.map (fun (_, t) -> Emc.Busstop.count t) tables in
      (match counts with
      | c :: rest ->
        List.iter
          (fun c' ->
            if c <> c' then
              Alcotest.failf "%s: stop counts differ across architectures"
                cc.Emc.Compile.cc_name)
          rest
      | [] -> ());
      (* same stop id names the same kind and method everywhere *)
      let _, ref_table = List.hd tables in
      Array.iter
        (fun (e : Emc.Busstop.entry) ->
          List.iter
            (fun (_, t) ->
              let e' = Emc.Busstop.by_id t e.Emc.Busstop.be_id in
              check Alcotest.int "same method" e.Emc.Busstop.be_op e'.Emc.Busstop.be_op;
              if e.Emc.Busstop.be_kind <> e'.Emc.Busstop.be_kind then
                Alcotest.fail "stop kind differs across architectures")
            tables)
        ref_table.Emc.Busstop.bt_entries)
    p.Emc.Compile.p_classes

let test_busstops_bijective_pcs () =
  let p = compile_all counter_src in
  Array.iter
    (fun (cc : Emc.Compile.compiled_class) ->
      List.iter
        (fun (_, (art : Emc.Compile.arch_artifact)) ->
          let t = art.Emc.Compile.aa_stops in
          Array.iter
            (fun (e : Emc.Busstop.entry) ->
              if not e.Emc.Busstop.be_exit_only then begin
                match Emc.Busstop.of_pc t e.Emc.Busstop.be_pc with
                | Some e' ->
                  check Alcotest.int "pc maps back to stop" e.Emc.Busstop.be_id
                    e'.Emc.Busstop.be_id
                | None -> Alcotest.failf "stop %d: pc not in table" e.Emc.Busstop.be_id
              end)
            t.Emc.Busstop.bt_entries)
        cc.Emc.Compile.cc_arts)
    p.Emc.Compile.p_classes

let test_vax_exit_only_stops () =
  let p = compile_all counter_src in
  let counter =
    match Emc.Compile.find_class p "Counter" with
    | Some c -> c
    | None -> Alcotest.fail "no Counter"
  in
  let vax = Emc.Compile.artifact counter ~arch_id:"vax" in
  let sparc = Emc.Compile.artifact counter ~arch_id:"sparc" in
  let find_dequeue (t : Emc.Busstop.table) =
    Array.to_list t.Emc.Busstop.bt_entries
    |> List.filter (fun e ->
           match e.Emc.Busstop.be_kind with
           | Emc.Ir.Sk_mon_dequeue -> true
           | _ -> false)
  in
  let vax_deq = find_dequeue vax.Emc.Compile.aa_stops in
  let sparc_deq = find_dequeue sparc.Emc.Compile.aa_stops in
  check Alcotest.int "same dequeue stop count" (List.length sparc_deq)
    (List.length vax_deq);
  if vax_deq = [] then Alcotest.fail "expected monitor dequeue stops";
  List.iter
    (fun (e : Emc.Busstop.entry) ->
      if not e.Emc.Busstop.be_exit_only then
        Alcotest.fail "VAX dequeue stop must be exit-only";
      (* and must be absent from the pc-to-stop direction *)
      match Emc.Busstop.of_pc vax.Emc.Compile.aa_stops e.Emc.Busstop.be_pc with
      | Some e' when e'.Emc.Busstop.be_id = e.Emc.Busstop.be_id ->
        Alcotest.fail "exit-only stop must not be pc-mapped"
      | Some _ | None -> ())
    vax_deq;
  List.iter
    (fun (e : Emc.Busstop.entry) ->
      if e.Emc.Busstop.be_exit_only then
        Alcotest.fail "non-VAX dequeue stops are ordinary system calls")
    sparc_deq

(* The programs the system-call check compiles: every golden program
   (test/golden, found from the test directory under dune and from the
   repository root under [dune exec]) and every workload source. *)
let golden_and_workload_sources () =
  let dir = if Sys.file_exists "golden" then "golden" else Filename.concat "test" "golden" in
  let golden =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".em")
    |> List.sort String.compare
    |> List.map (fun f ->
           (f, In_channel.with_open_text (Filename.concat dir f) In_channel.input_all))
  in
  if golden = [] then Alcotest.failf "no golden program in %s" dir;
  golden
  @ Core.Workloads.
      [
        ("table1_src", table1_src);
        ("intranode_src", intranode_src);
        ("fig2_src", fig2_src);
        ("scaling_src", scaling_src);
        ("hotspot_src", hotspot_src);
        ("cluster_src", cluster_src);
      ]

(* The kernel dispatches a system call on the kind of the stop it sits
   at and refuses a number that disagrees, so a wrong number would show
   only when that call runs.  Checked statically here, on every
   architecture at every level: each [Syscall n] sits at a visible PC
   (canonical or alternate) of a stop whose kind makes call [n], and each
   stop of a kind that makes a call, unless exit-only (VAX REMQUE) or
   elided, has exactly one. *)
let test_syscalls_at_their_stops () =
  let module B = Emc.Busstop in
  let calls_checked = ref 0 in
  List.iter
    (fun (name, src) ->
      let prog =
        Emc.Compile.compile_exn ~levels:Emc.Opt.[ O0; O1; O2 ] ~name ~archs:A.all src
      in
      Array.iter
        (fun (cc : Emc.Compile.compiled_class) ->
          List.iter
            (fun (_, (art : Emc.Compile.arch_artifact)) ->
              let where =
                Printf.sprintf "%s: class %s on %s at -%s" name cc.Emc.Compile.cc_name
                  art.Emc.Compile.aa_arch.A.id
                  (Emc.Opt.to_string art.Emc.Compile.aa_level)
              in
              let code = art.Emc.Compile.aa_code and stops = art.Emc.Compile.aa_stops in
              let calls = Array.make (B.count stops) 0 in
              Array.iteri
                (fun i insn ->
                  match insn with
                  | Isa.Insn.Syscall n -> (
                    let pc = code.Isa.Code.offsets.(i) in
                    match B.id_of_pc stops pc with
                    | -1 -> Alcotest.failf "%s: system call %d at %#x is at no stop" where n pc
                    | id ->
                      let kind = (B.by_id stops id).B.be_kind in
                      if Emc.Sysno.of_stop kind <> n then
                        Alcotest.failf "%s: system call %d at stop %d (%s), which makes call %d"
                          where n id (B.kind_name kind) (Emc.Sysno.of_stop kind);
                      calls.(id) <- calls.(id) + 1;
                      incr calls_checked)
                  | _ -> ())
                code.Isa.Code.insns;
              Array.iter
                (fun (e : B.entry) ->
                  let makes_call =
                    match e.B.be_kind with
                    | Emc.Ir.Sk_loop -> false
                    | _ -> not (e.B.be_exit_only || e.B.be_elided)
                  in
                  let want = if makes_call then 1 else 0 in
                  if calls.(e.B.be_id) <> want then
                    Alcotest.failf "%s: stop %d (%s) has %d system calls, not %d" where
                      e.B.be_id (B.kind_name e.B.be_kind) calls.(e.B.be_id) want)
                stops.B.bt_entries)
            cc.Emc.Compile.cc_arts)
        prog.Emc.Compile.p_classes)
    (golden_and_workload_sources ());
  if !calls_checked = 0 then Alcotest.fail "no system call was checked"

let test_program_db_stable () =
  let db = Emc.Program_db.create () in
  let o1 = Emc.Program_db.assign db ~program:"p" ~class_name:"A" in
  let o2 = Emc.Program_db.assign db ~program:"p" ~class_name:"B" in
  let o1' = Emc.Program_db.assign db ~program:"p" ~class_name:"A" in
  check Alcotest.int32 "stable" o1 o1';
  if Int32.equal o1 o2 then Alcotest.fail "distinct classes need distinct oids";
  let db2 = Emc.Program_db.create () in
  let o1'' = Emc.Program_db.assign db2 ~program:"p" ~class_name:"A" in
  check Alcotest.int32 "deterministic across databases" o1 o1''

let suites =
  [
    ( "emc.parser",
      [
        Alcotest.test_case "basic program" `Quick test_parse_basic;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "syntax errors" `Quick test_parse_errors;
        Alcotest.test_case "comments" `Quick test_parse_comments;
      ] );
    ( "emc.typecheck",
      [
        Alcotest.test_case "counter program" `Quick test_typecheck_ok;
        Alcotest.test_case "error cases" `Quick test_typecheck_errors;
        Alcotest.test_case "int to real promotion" `Quick test_int_real_promotion;
        Alcotest.test_case "vector types compile" `Quick test_vector_types_roundtrip;
      ] );
    ( "emc.ir",
      [
        Alcotest.test_case "deterministic stops and oids" `Quick test_ir_stops_deterministic;
        Alcotest.test_case "monitor stops" `Quick test_ir_monitor_stops;
      ] );
    ( "emc.template",
      [
        Alcotest.test_case "slots well formed" `Quick test_template_slots;
        Alcotest.test_case "unique slot ownership per stop" `Quick
          test_template_no_slot_conflicts;
      ] );
    ( "emc.codegen",
      [
        Alcotest.test_case "validates on every architecture" `Quick test_codegen_validates;
        Alcotest.test_case "families differ" `Quick test_codegen_families_differ;
      ] );
    ( "emc.busstop",
      [
        Alcotest.test_case "isomorphic across architectures" `Quick
          test_busstops_isomorphic;
        Alcotest.test_case "pc mapping is bijective" `Quick test_busstops_bijective_pcs;
        Alcotest.test_case "VAX REMQUE stops are exit-only" `Quick
          test_vax_exit_only_stops;
        Alcotest.test_case "every system call sits at its stop" `Quick
          test_syscalls_at_their_stops;
        Alcotest.test_case "program database" `Quick test_program_db_stable;
      ] );
  ]
