(* emdis: disassemble the native code generated for one architecture,
   side by side with its bus-stop table.

     emdis FILE ARCH [CLASS] [--blocks] [--opt-diff L,L] *)

open Cmdliner

let arch_by_id id =
  try Isa.Arch.by_id id
  with Not_found ->
    Printf.eprintf "emdis: unknown architecture %s (have: %s)\n" id
      (String.concat ", " (List.map (fun a -> a.Isa.Arch.id) Isa.Arch.all));
    exit 2

(* the paths the translator builds: each path's instructions in the
   order it runs them (as runs of consecutive instructions, by offset),
   the offsets its conditional branches leave for, and where it runs off
   to or the offset of the transfer, call or halt it ends at *)
let print_blocks (code : Isa.Code.t) =
  Printf.printf "paths %s/%s:\n" code.Isa.Code.class_name
    code.Isa.Code.arch.Isa.Arch.id;
  let runs idxs =
    let rec go acc = function
      | [] -> List.rev acc
      | j :: rest -> (
        match acc with
        | (a, b) :: acc' when j = b + 1 -> go ((a, j) :: acc') rest
        | _ -> go ((j, j) :: acc) rest)
    in
    let off i = code.Isa.Code.offsets.(i) in
    String.concat ", "
      (List.map
         (fun (a, b) ->
           if a = b then Printf.sprintf "0x%04x" (off a)
           else Printf.sprintf "0x%04x..0x%04x" (off a) (off b))
         (go [] idxs))
  in
  List.iter
    (fun (p : Isa.Dispatch.path_info) ->
      let idxs = p.Isa.Dispatch.pi_insns in
      let head = List.hd idxs in
      let exits =
        match p.Isa.Dispatch.pi_exits with
        | [] -> ""
        | l -> "; side exits " ^ String.concat " " (List.map (Printf.sprintf "0x%04x") l)
      in
      let ends =
        if p.Isa.Dispatch.pi_next >= 0 then Printf.sprintf "; then 0x%04x" p.Isa.Dispatch.pi_next
        else
          Printf.sprintf "; ends at 0x%04x"
            code.Isa.Code.offsets.(List.nth idxs (List.length idxs - 1))
      in
      let n = List.length idxs in
      Printf.printf "  0x%04x  %d insn%s: %s%s%s\n" code.Isa.Code.offsets.(head) n
        (if n = 1 then "" else "s")
        (runs idxs) exits ends)
    (Isa.Dispatch.describe_paths code)

(* --opt-diff: the same class compiled at two optimization levels, the
   instances printed in two columns.  Bus stops are the alignment anchors:
   both instances come from one IR, so stop ids and their order are
   identical by construction; only the instruction sequences between them
   differ.  Each chunk starts at a stop's canonical PC. *)

(* the instance's code split into chunks, each headed by the bus stop
   whose canonical PC opens it (the prologue chunk has none) *)
let chunk_instance (art : Emc.Compile.arch_artifact) =
  let code = art.Emc.Compile.aa_code in
  let anchors = Hashtbl.create 16 in
  Array.iter
    (fun (e : Emc.Busstop.entry) ->
      if not (Hashtbl.mem anchors e.Emc.Busstop.be_pc) then
        Hashtbl.replace anchors e.Emc.Busstop.be_pc e)
    art.Emc.Compile.aa_stops.Emc.Busstop.bt_entries;
  let labels = Hashtbl.create 4 in
  Array.iter
    (fun (m : Isa.Code.method_info) ->
      Hashtbl.replace labels m.Isa.Code.entry_offset m.Isa.Code.method_name)
    code.Isa.Code.methods;
  let chunks = ref [] and cur_stop = ref None and cur_lines = ref [] in
  let flush () =
    chunks := (!cur_stop, List.rev !cur_lines) :: !chunks;
    cur_lines := []
  in
  Array.iter
    (fun off ->
      (match Hashtbl.find_opt anchors off with
      | Some e ->
        flush ();
        cur_stop := Some e
      | None -> ());
      (match Hashtbl.find_opt labels off with
      | Some name -> cur_lines := (name ^ ":") :: !cur_lines
      | None -> ());
      cur_lines := Isa.Disasm.insn_at code off :: !cur_lines)
    code.Isa.Code.offsets;
  flush ();
  List.rev !chunks

let stop_tag (e : Emc.Busstop.entry) =
  Printf.sprintf "@%04x%s" e.Emc.Busstop.be_pc
    (if e.Emc.Busstop.be_elided then " (elided: bridge entry)"
     else if e.Emc.Busstop.be_exit_only then " (exit-only)"
     else "")

let print_opt_diff ~arch (cc : Emc.Compile.compiled_class) la lb =
  let inst l =
    match Emc.Compile.artifact_at cc ~arch_id:arch.Isa.Arch.id ~level:l with
    | Some a -> a
    | None ->
      Printf.eprintf "%s: no -%s instance for %s\n" cc.Emc.Compile.cc_name
        (Emc.Opt.to_string l) arch.Isa.Arch.id;
      exit 1
  in
  let aa = inst la and ab = inst lb in
  Printf.printf "%s/%s: -%s (%d bytes) vs -%s (%d bytes)\n"
    cc.Emc.Compile.cc_name arch.Isa.Arch.id (Emc.Opt.to_string la)
    aa.Emc.Compile.aa_code.Isa.Code.byte_size (Emc.Opt.to_string lb)
    ab.Emc.Compile.aa_code.Isa.Code.byte_size;
  let edits (art : Emc.Compile.arch_artifact) =
    match art.Emc.Compile.aa_edits with
    | [] ->
      Printf.printf "  -%s: no optimizer edits\n"
        (Emc.Opt.to_string art.Emc.Compile.aa_level)
    | es ->
      Printf.printf "  -%s edits (in application order):\n"
        (Emc.Opt.to_string art.Emc.Compile.aa_level);
      List.iter
        (fun e -> Printf.printf "    %s\n" (Format.asprintf "%a" Emc.Opt.pp_edit e))
        es
  in
  edits aa;
  edits ab;
  let ca = chunk_instance aa and cb = chunk_instance ab in
  if List.length ca <> List.length cb then
    (* cannot happen while both instances share the IR's stop set; keep the
       tool usable if an optimizer bug breaks that invariant *)
    Printf.printf "  ! instances disagree on chunk structure (%d vs %d stops+prologue)\n"
      (List.length ca) (List.length cb);
  let width =
    List.fold_left
      (fun w (_, lines) -> List.fold_left (fun w l -> max w (String.length l)) w lines)
      24 ca
  in
  let rec zip xs ys =
    match (xs, ys) with
    | [], [] -> ()
    | (sa, las) :: xs', (sb, lbs) :: ys' ->
      (match (sa, sb) with
      | None, None -> Printf.printf "  -- entry\n"
      | Some (ea : Emc.Busstop.entry), Some eb ->
        if ea.Emc.Busstop.be_id <> eb.Emc.Busstop.be_id then
          Printf.printf "  ! stop order diverges (%d vs %d)\n" ea.Emc.Busstop.be_id
            eb.Emc.Busstop.be_id;
        Printf.printf "  -- stop %d %-10s %s | %s\n" ea.Emc.Busstop.be_id
          (Emc.Busstop.kind_name ea.Emc.Busstop.be_kind) (stop_tag ea) (stop_tag eb)
      | _ -> Printf.printf "  ! instances disagree on the prologue\n");
      let rec cols l r =
        match (l, r) with
        | [], [] -> ()
        | l, r ->
          let hd = function [] -> "" | x :: _ -> x in
          let tl = function [] -> [] | _ :: t -> t in
          Printf.printf "  %-*s | %s\n" width (hd l) (hd r);
          cols (tl l) (tl r)
      in
      cols las lbs;
      zip xs' ys'
    | (_, lines) :: xs', [] ->
      List.iter (fun l -> Printf.printf "  %-*s |\n" width l) lines;
      zip xs' []
    | [], (_, lines) :: ys' ->
      List.iter (fun l -> Printf.printf "  %-*s | %s\n" width "" l) lines;
      zip [] ys'
  in
  zip ca cb

let dis file arch_id cls blocks opt_diff =
  let source = In_channel.with_open_text file In_channel.input_all in
  let arch = arch_by_id arch_id in
  let diff_levels =
    match opt_diff with
    | None -> None
    | Some s -> (
      match String.split_on_char ',' s with
      | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b when a >= 0 && a <= 2 && b >= 0 && b <= 2 && a <> b ->
          Some (Emc.Opt.of_int a, Emc.Opt.of_int b)
        | _ ->
          Printf.eprintf "emdis: --opt-diff wants two distinct levels 0..2, got %s\n" s;
          exit 2)
      | _ ->
        Printf.eprintf "emdis: --opt-diff wants LEVEL,LEVEL (for instance 0,2)\n";
        exit 2)
  in
  let levels =
    Option.map (fun (a, b) -> [ a; b ]) diff_levels
  in
  let prog =
    match
      Emc.Compile.compile ?levels
        ~name:(Filename.remove_extension (Filename.basename file)) ~archs:[ arch ] source
    with
    | Ok p -> p
    | Error errs ->
      List.iter
        (fun e ->
          Printf.eprintf "%s: %s\n" file (Format.asprintf "%a" Emc.Diag.pp_error e))
        errs;
      exit 1
  in
  let wanted (cc : Emc.Compile.compiled_class) =
    match cls with None -> true | Some c -> String.equal cc.Emc.Compile.cc_name c
  in
  Array.iter
    (fun (cc : Emc.Compile.compiled_class) ->
      if wanted cc then
        match diff_levels with
        | Some (la, lb) -> print_opt_diff ~arch cc la lb
        | None ->
          let art = Emc.Compile.artifact cc ~arch_id:arch.Isa.Arch.id in
          print_string (Isa.Disasm.listing art.Emc.Compile.aa_code);
          Format.printf "%a@." Emc.Busstop.pp art.Emc.Compile.aa_stops;
          if blocks then print_blocks art.Emc.Compile.aa_code)
    prog.Emc.Compile.p_classes

let file_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Emerald source file.")

let arch_t =
  Arg.(required & pos 1 (some string) None
       & info [] ~docv:"ARCH" ~doc:"Architecture to disassemble for.")

let class_t =
  Arg.(value & pos 2 (some string) None
       & info [] ~docv:"CLASS" ~doc:"Restrict the listing to this class.")

let blocks_t =
  Arg.(value & flag
       & info [ "blocks" ]
           ~doc:"Print the paths the dispatch engine's translator builds \
                 from each method entry and resume point: each path's \
                 instructions in the order it runs them, the offsets its \
                 conditional branches leave for, and where it runs off to.")

let opt_diff_t =
  Arg.(value & opt (some string) None
       & info [ "opt-diff" ] ~docv:"LEVEL,LEVEL"
           ~doc:"Compile two code instances of each class (for instance 0,2) \
                 and print them in two columns, aligned at their shared bus \
                 stops, with the optimizer's edit provenance and elided \
                 stops (bridge entry points) annotated.")

let cmd =
  let doc = "disassemble native code next to its bus-stop table" in
  Cmd.v (Cmd.info "emdis" ~doc)
    Term.(const dis $ file_t $ arch_t $ class_t $ blocks_t $ opt_diff_t)

let () = exit (Cmd.eval cmd)
