type arch_artifact = {
  aa_arch : Isa.Arch.t;
  aa_level : Opt.level;
  aa_code : Isa.Code.t;
  aa_stops : Busstop.table;
  aa_edits : Opt.edit list;
}

type compiled_class = {
  cc_name : string;
  cc_index : int;
  cc_oid : int32;
  cc_template : Template.class_t;
  cc_ir : Ir.class_ir;
  cc_levels : Opt.level list;
  cc_arts : ((string * Opt.level) * arch_artifact) list;
}

type program = {
  p_name : string;
  p_ir : Ir.program_ir;
  p_classes : compiled_class array;
}

let backend_for (arch : Isa.Arch.t) =
  match arch.Isa.Arch.family with
  | Isa.Arch.Vax -> Codegen_vax.compile_class_at
  | Isa.Arch.M68k -> Codegen_m68k.compile_class_at
  | Isa.Arch.Sparc -> Codegen_sparc.compile_class_at

(* dedup preserving first occurrence: the first level is the primary one *)
let norm_levels levels =
  List.fold_left (fun acc l -> if List.mem l acc then acc else acc @ [ l ]) [] levels

let compile_exn ?db ?levels ~name ~archs source =
  let levels =
    match levels with
    | Some [] | None -> [ Opt.O0 ]
    | Some ls -> norm_levels ls
  in
  let db =
    match db with
    | Some db -> db
    | None -> Program_db.create ()
  in
  let ast = Parser.parse_program source in
  let tprog = Typecheck.check ast in
  let ir =
    Lower.lower_program ~name
      ~formats:(List.map (fun (a : Isa.Arch.t) -> a.Isa.Arch.float_format) archs)
      tprog
  in
  let classes =
    Array.map
      (fun (cl : Ir.class_ir) ->
        let oid = Program_db.assign db ~program:name ~class_name:cl.Ir.cl_name in
        let template = Slot_alloc.build_class cl ~oid in
        let arts =
          List.concat_map
            (fun arch ->
              List.map
                (fun level ->
                  let code, stops, edits =
                    (backend_for arch) ~level ~arch ~code_oid:oid cl template
                  in
                  ( (arch.Isa.Arch.id, level),
                    {
                      aa_arch = arch;
                      aa_level = level;
                      aa_code = code;
                      aa_stops = stops;
                      aa_edits = edits;
                    } ))
                levels)
            archs
        in
        {
          cc_name = cl.Ir.cl_name;
          cc_index = cl.Ir.cl_index;
          cc_oid = oid;
          cc_template = template;
          cc_ir = cl;
          cc_levels = levels;
          cc_arts = arts;
        })
      ir.Ir.pr_classes
  in
  { p_name = name; p_ir = ir; p_classes = classes }

let compile ?db ?levels ~name ~archs source =
  match compile_exn ?db ?levels ~name ~archs source with
  | prog -> Ok prog
  | exception Diag.Compile_error errs -> Error errs

let find_class prog name =
  Array.find_opt (fun c -> String.equal c.cc_name name) prog.p_classes

let primary_level cc =
  match cc.cc_levels with
  | l :: _ -> l
  | [] -> Opt.O0

let artifact_at cc ~arch_id ~level = List.assoc_opt (arch_id, level) cc.cc_arts

let artifact cc ~arch_id =
  match artifact_at cc ~arch_id ~level:(primary_level cc) with
  | Some a -> a
  | None ->
    invalid_arg
      (Printf.sprintf "Compile.artifact: class %s was not compiled for %s" cc.cc_name
         arch_id)

let class_by_index prog i = prog.p_classes.(i)
