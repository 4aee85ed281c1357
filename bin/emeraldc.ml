(* emeraldc: compile an Emerald-like source file for the heterogeneous
   architectures and inspect what the compiler produces — native code,
   templates, bus-stop tables, IR.

     emeraldc FILE [-O{0,1,2}] [--arch ID] [--dump-ir] [--dump-code]
                   [--dump-stops] [--dump-template] *)

open Cmdliner

let level_of_int n =
  try Emc.Opt.of_int n
  with Invalid_argument _ ->
    Printf.eprintf "emeraldc: invalid optimization level -O%d (have: 0, 1, 2)\n" n;
    exit 2

let compile file opt arch_id dump_ir dump_code dump_stops dump_template =
  let source = In_channel.with_open_text file In_channel.input_all in
  let level = level_of_int opt in
  let archs =
    match arch_id with
    | None -> Isa.Arch.all
    | Some id -> (
      try [ Isa.Arch.by_id id ]
      with Not_found ->
        Printf.eprintf "emeraldc: unknown architecture %s (have: %s)\n" id
          (String.concat ", " (List.map (fun a -> a.Isa.Arch.id) Isa.Arch.all));
        exit 2)
  in
  match
    Emc.Compile.compile ~levels:[ level ]
      ~name:(Filename.remove_extension (Filename.basename file))
      ~archs source
  with
  | Error errs ->
    List.iter
      (fun e -> Printf.eprintf "%s: %s\n" file (Format.asprintf "%a" Emc.Diag.pp_error e))
      errs;
    exit 1
  | Ok prog ->
    Printf.printf "%s: %d class(es) compiled for %s\n" file
      (Array.length prog.Emc.Compile.p_classes)
      (String.concat ", " (List.map (fun a -> a.Isa.Arch.id) archs));
    Array.iter
      (fun (cc : Emc.Compile.compiled_class) ->
        Printf.printf "  %s: oid %ld, %d bus stop(s)\n" cc.Emc.Compile.cc_name
          cc.Emc.Compile.cc_oid cc.Emc.Compile.cc_ir.Emc.Ir.cl_nstops;
        List.iter
          (fun ((id, level), (art : Emc.Compile.arch_artifact)) ->
            Printf.printf "    %-6s -%s %5d bytes of code%s\n" id
              (Emc.Opt.to_string level) art.Emc.Compile.aa_code.Isa.Code.byte_size
              (match List.length art.Emc.Compile.aa_edits with
              | 0 -> ""
              | n -> Printf.sprintf " (%d optimizer edit(s))" n))
          cc.Emc.Compile.cc_arts)
      prog.Emc.Compile.p_classes;
    if dump_ir then Format.printf "@.%a" Emc.Pretty.pp_program prog.Emc.Compile.p_ir;
    Array.iter
      (fun (cc : Emc.Compile.compiled_class) ->
        if dump_template then
          Format.printf "@.%a" Emc.Template.pp_class cc.Emc.Compile.cc_template;
        List.iter
          (fun (_, (art : Emc.Compile.arch_artifact)) ->
            if dump_code then begin
              print_newline ();
              print_string (Isa.Disasm.listing art.Emc.Compile.aa_code)
            end;
            if dump_stops then Format.printf "@.%a" Emc.Busstop.pp art.Emc.Compile.aa_stops)
          cc.Emc.Compile.cc_arts)
      prog.Emc.Compile.p_classes

let file_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Emerald source file.")

let opt_t =
  Arg.(value & opt int 0
       & info [ "O" ] ~docv:"LEVEL"
           ~doc:"Optimization level: 0 none, 1 between-bus-stops peephole, 2 windowed \
                 redundant-load elimination and loop-poll elision.")

let arch_t =
  Arg.(value & opt (some string) None
       & info [ "arch" ] ~docv:"ID"
           ~doc:"Compile only for this architecture (vax, sun3, hp433, hp385, \
                 sparc); default: all.")

let dump_ir_t =
  Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the machine-independent IR.")

let dump_code_t =
  Arg.(value & flag & info [ "dump-code" ] ~doc:"Print the native-code listings.")

let dump_stops_t =
  Arg.(value & flag & info [ "dump-stops" ] ~doc:"Print the bus-stop tables.")

let dump_template_t =
  Arg.(value & flag
       & info [ "dump-template" ] ~doc:"Print the object/activation-record templates.")

let cmd =
  let doc = "compile an Emerald-like program for the heterogeneous architectures" in
  Cmd.v
    (Cmd.info "emeraldc" ~doc)
    Term.(
      const compile $ file_t $ opt_t $ arch_t $ dump_ir_t $ dump_code_t $ dump_stops_t
      $ dump_template_t)

let () = exit (Cmd.eval cmd)
