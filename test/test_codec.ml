(* The wire codec pinned record by record.  A fixed corpus of messages is
   encoded and decoded under the three codec configurations the cluster
   uses, and every row of [golden] records the wire bytes plus the
   conversion charges each configuration makes.  A change to the codec
   that moves bytes or charges shows up as the rows it edits.  The
   Table 1 virtual times the tiers produce are pinned here too. *)

module A = Isa.Arch
module V = Ert.Value
module MF = Mobility.Mi_frame
module M = Mobility.Marshal
module CS = Enet.Conversion_stats
module T = Emc.Template

(* Corpus ----------------------------------------------------------------- *)

let oid n s = Ert.Oid.fresh_data ~node_id:n ~serial:s

(* The Table 1 program supplies real frames *)
let table1 = Emc.Compile.compile_exn ~name:"table1" ~archs:A.all Core.Workloads.table1_src
let agent = Option.get (Emc.Compile.find_class table1 "Agent")

let value_of_type i : Emc.Ast.typ -> V.t = function
  | Emc.Ast.Tint -> V.Vint (Int32.of_int ((100 * i) + 7))
  | Emc.Ast.Treal -> V.Vreal (float_of_int i +. 0.5)
  | Emc.Ast.Tbool -> V.Vbool (i mod 2 = 0)
  | Emc.Ast.Tstring -> V.Vstr (string_of_int i)
  | Emc.Ast.Tobj _ | Emc.Ast.Tvec _ | Emc.Ast.Tnil -> V.Vnil

(* a frame of Agent.trip parked at [stop], every live slot filled *)
let table1_frame stop =
  let ct = agent.Emc.Compile.cc_template in
  let st = T.stop_by_id ct stop in
  Frames.make ~cls:agent.Emc.Compile.cc_index ~code_oid:agent.Emc.Compile.cc_oid
    ~meth:(T.op_of_stop ct stop).T.ot_index ~stop ~self:(oid 1 9)
    (List.map (fun es -> (es.T.es_slot, value_of_type es.T.es_slot es.T.es_type)) st.T.st_live)

(* the first two stops of Agent.trip that carry live slots *)
let table1_stops =
  let ct = agent.Emc.Compile.cc_template in
  let live =
    List.filter
      (fun st -> st.T.st_op = 0 && st.T.st_live <> [])
      (Array.to_list ct.T.ct_stops)
  in
  match live with
  | a :: b :: _ -> (a.T.st_id, b.T.st_id)
  | _ -> failwith "Table 1 has fewer than two stops with live slots"

let str_vec = V.Vvec (Emc.Ast.Tstring, [| V.Vstr "a"; V.Vnil; V.Vstr "" |])

let nested_vec =
  V.Vvec
    ( Emc.Ast.Tvec Emc.Ast.Tint,
      [| V.Vvec (Emc.Ast.Tint, [| V.Vint 1l; V.Vint (-2l) |]); V.Vnil |] )

let obj_vec = V.Vvec (Emc.Ast.Tobj "Agent", [| V.Vref (oid 3 1); V.Vnil |])

(* nil-able slots (strings, references, vectors) holding both values and
   nil *)
let generic_frame =
  Frames.make ~cls:3 ~code_oid:77l ~meth:1 ~stop:4 ~self:(oid 2 3)
    [
      (0, V.Vstr "s");
      (1, V.Vnil);
      (2, V.Vref (oid 2 5));
      (3, str_vec);
      (5, V.Vreal 0.25);
      (6, V.Vbool false);
      (7, obj_vec);
    ]

(* a Table 1 frame whose int slot holds nil *)
let mismatched_frame =
  let f = table1_frame (snd table1_stops) in
  match Frames.values f with
  | [] -> assert false
  | (slot, _) :: rest ->
    Frames.make ~cls:f.MF.mf_class ~code_oid:f.MF.mf_code_oid ~meth:f.MF.mf_method
      ~stop:f.MF.mf_stop ~self:f.MF.mf_self
      ((slot, V.Vnil) :: rest)

let segment ?(frames = [ generic_frame ]) ?link ?result ?spawn status =
  {
    MF.ms_seg_id = 12345;
    ms_thread = 67;
    ms_status = status;
    ms_frames = frames;
    ms_link = link;
    ms_result_type = result;
    ms_spawn = spawn;
  }

let link = { Ert.Thread.ln_node = 2; ln_seg = 41 }

let table1_segment =
  segment ~result:Emc.Ast.Tint
    ~frames:[ table1_frame (fst table1_stops); table1_frame (snd table1_stops) ]
    (MF.Ms_parked Ert.Thread.Run)

let status_segments =
  let module S = Ert.Thread in
  [
    ("deliver", segment ~link (MF.Ms_parked (S.Deliver (V.Vstr "x"))));
    ("complete value", segment (MF.Ms_parked (S.Complete (Some (V.Vint 3l)))));
    ("complete unit", segment ~result:Emc.Ast.Tstring (MF.Ms_parked (S.Complete None)));
    ("dequeue some", segment (MF.Ms_parked (S.Complete_dequeue (Some 17))));
    ("dequeue none", segment (MF.Ms_parked (S.Complete_dequeue None)));
    ("awaiting reply", segment ~link (MF.Ms_awaiting_reply 6));
    ( "monitor entry",
      segment
        (MF.Ms_blocked_monitor { mon = oid 1 2; in_queue = true; cond = -1; deadline = None })
    );
    ( "monitor timed",
      segment
        (MF.Ms_blocked_monitor
           { mon = oid 1 2; in_queue = false; cond = 2; deadline = Some 12500.5 }) );
    ( "mixed frames",
      segment ~frames:[ mismatched_frame; generic_frame ] (MF.Ms_parked Ert.Thread.Run) );
  ]

let spawn_segment =
  segment ~frames:[] ~link ~result:(Emc.Ast.Tvec Emc.Ast.Tstring)
    ~spawn:
      {
        Ert.Thread.si_target = oid 1 9;
        si_class = 0;
        si_method = 0;
        si_args = [ V.Vint 1l; V.Vint 4l ];
      }
    (MF.Ms_parked Ert.Thread.Run)

let agent_object =
  {
    M.mo_oid = oid 1 9;
    mo_class = agent.Emc.Compile.cc_index;
    mo_fields = [||];
    mo_locked = false;
    mo_waiters = [];
    mo_cond_waiters = [];
  }

let rich_object =
  {
    M.mo_oid = oid 1 8;
    mo_class = 2;
    mo_fields = [| V.Vint 1l; V.Vstr "f"; V.Vnil; str_vec; V.Vreal (-1.5) |];
    mo_locked = true;
    mo_waiters = [ 11; 22 ];
    mo_cond_waiters = [ [ 33 ]; [] ];
  }

let payload ?(objects = []) ?(segments = []) level =
  { M.mp_src = 1; mp_opt_level = level; mp_objects = objects; mp_segments = segments }

let invoke =
  M.M_invoke
    {
      target = oid 1 4;
      callee_class = 0;
      callee_method = 1;
      args =
        [
          V.Vint (-5l); V.Vreal 2.5; V.Vbool true; V.Vstr "emerald"; V.Vref (oid 1 4); V.Vnil;
          str_vec;
        ];
      reply = { Ert.Thread.ln_node = 0; ln_seg = 77 };
      thread = 9;
      forwards = 2;
    }

let corpus =
  [
    ("invoke", invoke);
    ("reply int", M.M_reply { to_seg = 77; value = V.Vint 42l; thread = 9 });
    ("reply vector", M.M_reply { to_seg = 77; value = nested_vec; thread = 9 });
    ("move request", M.M_move_req { obj = oid 2 5; dest = 3; forwards = 1 });
    ("start process", M.M_start_process { obj = oid 2 5; forwards = 0 });
    ("locate", M.M_locate { obj = oid 2 5 });
    ("located", M.M_located { obj = oid 2 5; found = true });
    ( "dir update",
      M.M_dir_update { objs = [ oid 1 1; oid 1 2; oid 3 7 ]; node = 3; at = 1250.25 } );
    ("dir lookup", M.M_dir_lookup { obj = oid 3 7 });
    ("dir reply known", M.M_dir_reply { obj = oid 3 7; node = 4; known = true });
    ("dir reply unknown", M.M_dir_reply { obj = oid 3 7; node = 0; known = false });
    ("loc hint", M.M_loc_hint { obj = oid 3 7; node = 4 });
    ("invoke via", M.M_invoke_via { via = [ 1; 2 ]; inv = invoke });
    ("move empty O0", M.M_move (payload 0));
    ("move empty O2", M.M_move (payload 2));
    ( "move table1 O0",
      M.M_move (payload ~objects:[ agent_object ] ~segments:[ table1_segment ] 0) );
    ( "move table1 O2",
      M.M_move (payload ~objects:[ agent_object ] ~segments:[ table1_segment ] 2) );
    ("move spawn", M.M_move (payload ~objects:[ rich_object ] ~segments:[ spawn_segment ] 0));
  ]
  @ List.map
      (fun (name, seg) -> ("move " ^ name, M.M_move (payload ~segments:[ seg ] 0)))
      status_segments
  @ [
      ("group move empty O2", M.M_group_move (payload 2));
      ( "group move O0",
        M.M_group_move
          (payload ~objects:[ rich_object; agent_object ]
             ~segments:[ table1_segment; spawn_segment ] 0) );
      ( "group move O2",
        M.M_group_move
          (payload ~objects:[ rich_object; agent_object ]
             ~segments:[ table1_segment; spawn_segment ] 2) );
    ]

(* Configurations ---------------------------------------------------------- *)

(* encode (calls, bytes), decode (calls, bytes) *)
type charges = int * int * int * int

(* the tier, and whether the batched common-layout accounting is on *)
let tiers = [ (Enet.Wire.Naive, false); (Enet.Wire.Plan, false); (Enet.Wire.Blit, true) ]

let run_config (impl, blit) msg =
  let es = CS.create () in
  let payload = M.encode ~blit ~impl ~stats:es msg in
  let ds = CS.create () in
  let back = M.decode ~blit ~impl ~stats:ds payload in
  if back <> msg then Alcotest.failf "%s: decode differs from the message" (M.describe msg);
  (Enet.Wire.view_to_string payload, (CS.calls es, CS.bytes es, CS.calls ds, CS.bytes ds))

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

(* Golden rows: name, wire bytes, then the charges under naive, plan
   (one call per datum) and batched blit *)
let golden : (string * string * charges * charges * charges) list =
  [
    ("invoke",
     "014004000400000001000701fffffffb0240040000000000000301040007656d6572616c6405400400040607040003040001610604000000000000004d0000000902",
     (94, 66, 94, 66), (28, 66, 28, 66), (28, 66, 28, 66));
    ("reply int",
     "020000004d010000002a00000009",
     (19, 14, 19, 14), (5, 14, 5, 14), (5, 14, 5, 14));
    ("reply vector",
     "020000004d070701000207010002010000000101fffffffe0600000009",
     (44, 29, 44, 29), (15, 29, 15, 29), (15, 29, 15, 29));
    ("move request",
     "0340080005000301",
     (12, 8, 12, 8), (4, 8, 4, 8), (4, 8, 4, 8));
    ("start process",
     "074008000500",
     (9, 6, 9, 6), (3, 6, 3, 6), (3, 6, 3, 6));
    ("locate",
     "0540080005",
     (7, 5, 7, 5), (2, 5, 2, 5), (2, 5, 2, 5));
    ("located",
     "064008000501",
     (9, 6, 9, 6), (3, 6, 3, 6), (3, 6, 3, 6));
    ("dir update",
     "080003409389000000000000034004000140040002400c0007",
     (32, 25, 32, 25), (7, 25, 7, 25), (7, 25, 7, 25));
    ("dir lookup",
     "09400c0007",
     (7, 5, 7, 5), (2, 5, 2, 5), (2, 5, 2, 5));
    ("dir reply known",
     "0a400c0007000401",
     (12, 8, 12, 8), (4, 8, 4, 8), (4, 8, 4, 8));
    ("dir reply unknown",
     "0a400c0007000000",
     (12, 8, 12, 8), (4, 8, 4, 8), (4, 8, 4, 8));
    ("loc hint",
     "0b400c00070004",
     (10, 7, 10, 7), (3, 7, 3, 7), (3, 7, 3, 7));
    ("invoke via",
     "0c000200010002014004000400000001000701fffffffb0240040000000000000301040007656d6572616c6405400400040607040003040001610604000000000000004d0000000902",
     (105, 73, 105, 73), (32, 73, 32, 73), (32, 73, 32, 73));
    ("move empty O0",
     "04000100000000",
     (11, 7, 11, 7), (4, 7, 4, 7), (3, 7, 4, 7));
    ("move empty O2",
     "0e00010200000000",
     (13, 8, 13, 8), (5, 8, 5, 8), (3, 8, 4, 8));
    ("move table1 O0",
     "040001000140040009000000000000000000000100003039000000430101000200002a123a44000000004004000900030000060001010000006b000201000000cf00002a123a440000000140040009000c0000060001010000006b000201000000cf00040100000197000501000001fb0006010000025f000701000002c3000801000003270009010000038b000a01000003ef000b0100000453000c01000004b700010100",
     (239, 165, 239, 165), (74, 165, 74, 165), (8, 165, 9, 165));
    ("move table1 O2",
     "0e000102000140040009000000000000000000000100003039000000430101000200002a123a44000000004004000900030000060001010000006b000201000000cf00002a123a440000000140040009000c0000060001010000006b000201000000cf00040100000197000501000001fb0006010000025f000701000002c3000801000003270009010000038b000a01000003ef000b0100000453000c01000004b700010100",
     (241, 166, 241, 166), (75, 166, 75, 166), (8, 166, 9, 166));
    ("move spawn",
     "040001000140040008000200050100000001040001660607040003040001610604000002bff80000000000000100020000000b0000001600020001000000210000000100003039000000430101000001000200000029010704014004000900000000000201000000010100000004",
     (160, 110, 160, 110), (50, 110, 50, 110), (6, 110, 7, 110));
    ("move deliver",
     "040001000000010000303900000043010204000178000100030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c000106010002000000290000",
     (165, 112, 165, 112), (53, 112, 53, 112), (6, 112, 7, 112));
    ("move complete value",
     "0400010000000100003039000000430103010100000003000100030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c000106000000",
     (160, 108, 160, 108), (52, 108, 52, 108), (6, 108, 7, 108));
    ("move complete unit",
     "040001000000010000303900000043010300000100030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c00010600010400",
     (155, 104, 155, 104), (51, 104, 51, 104), (6, 104, 7, 104));
    ("move dequeue some",
     "04000100000001000030390000004301040100000011000100030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c000106000000",
     (158, 107, 158, 107), (51, 107, 51, 107), (6, 107, 7, 107));
    ("move dequeue none",
     "040001000000010000303900000043010400000100030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c000106000000",
     (153, 103, 153, 103), (50, 103, 50, 103), (6, 103, 7, 103));
    ("move awaiting reply",
     "040001000000010000303900000043020006000100030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c000106010002000000290000",
     (160, 109, 160, 109), (51, 109, 51, 109), (6, 109, 7, 109));
    ("move monitor entry",
     "040001000000010000303900000043034004000201ffffffff000100030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c000106000000",
     (161, 110, 161, 110), (51, 110, 51, 110), (6, 110, 7, 110));
    ("move monitor timed",
     "0400010000000100003039000000430440040002000000000240c86a4000000000000100030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c000106000000",
     (170, 118, 170, 118), (52, 118, 52, 118), (6, 118, 7, 118));
    ("move mixed frames",
     "0400010000000100003039000000430101000200002a123a440000000140040009000c0000060001010000006b000201000000cf00040100000197000501000001fb0006010000025f000701000002c3000801000003270009010000038b000a01000003ef000b0100000453000c01000004b700030000004d000100044008000300070000040001730001060002054008000500030704000304000161060400000005023fd0000000000000000603000007070600054167656e74000205400c000106000000",
     (288, 198, 288, 198), (90, 198, 90, 198), (7, 198, 8, 198));
    ("group move empty O2",
     "0f00010200000000",
     (13, 8, 13, 8), (5, 8, 5, 8), (3, 8, 4, 8));
    ("group move O0",
     "0d0001000240040008000200050100000001040001660607040003040001610604000002bff80000000000000100020000000b000000160002000100000021000040040009000000000000000000000200003039000000430101000200002a123a44000000004004000900030000060001010000006b000201000000cf00002a123a440000000140040009000c0000060001010000006b000201000000cf00040100000197000501000001fb0006010000025f000701000002c3000801000003270009010000038b000a01000003ef000b0100000453000c01000004b70001010000003039000000430101000001000200000029010704014004000900000000000201000000010100000004",
     (388, 268, 388, 268), (120, 268, 120, 268), (11, 268, 12, 268));
    ("group move O2",
     "0f000102000240040008000200050100000001040001660607040003040001610604000002bff80000000000000100020000000b000000160002000100000021000040040009000000000000000000000200003039000000430101000200002a123a44000000004004000900030000060001010000006b000201000000cf00002a123a440000000140040009000c0000060001010000006b000201000000cf00040100000197000501000001fb0006010000025f000701000002c3000801000003270009010000038b000a01000003ef000b0100000453000c01000004b70001010000003039000000430101000001000200000029010704014004000900000000000201000000010100000004",
     (390, 269, 390, 269), (121, 269, 121, 269), (11, 269, 12, 269));
  ]

let pp_charges (a, b, c, d) = Printf.sprintf "(%d, %d, %d, %d)" a b c d

let pp_row (name, h, n, p, b) =
  Printf.sprintf "    (%S,\n     %S,\n     %s, %s, %s);" name h (pp_charges n)
    (pp_charges p) (pp_charges b)

let actual_row (name, msg) =
  let results = Array.of_list (List.map (fun t -> run_config t msg) tiers) in
  let bytes = fst results.(0) in
  Array.iteri
    (fun i (b, _) -> if b <> bytes then Alcotest.failf "%s: tier %d writes different bytes" name i)
    results;
  let ch i = snd results.(i) in
  (name, hex bytes, ch 0, ch 1, ch 2)

let test_pinned () =
  let actual = List.map actual_row corpus in
  let mismatched =
    List.filter
      (fun ((name, _, _, _, _) as row) ->
        match List.find_opt (fun (n, _, _, _, _) -> String.equal n name) golden with
        | Some g -> g <> row
        | None -> true)
      actual
  in
  if mismatched <> [] || List.length golden <> List.length actual then
    Alcotest.failf "%d of %d rows differ from the golden table; actual rows:\n%s"
      (List.length mismatched) (List.length actual)
      (String.concat "\n" (List.map pp_row mismatched))

(* Counts on the wire are u16s.  The largest fits under every tier; one
   more must fail at the encoder, not arrive masked to 16 bits as a
   different well-formed message. *)
let ints n = Array.init n (fun i -> V.Vint (Int32.of_int i))

let oversized n =
  [
    ("vector", M.M_reply { to_seg = 1; value = V.Vvec (Emc.Ast.Tint, ints n); thread = 17 });
    ( "arguments",
      M.M_invoke
        {
          target = oid 1 4;
          callee_class = 0;
          callee_method = 0;
          args = Array.to_list (ints n);
          reply = link;
          thread = 17;
          forwards = 0;
        } );
    ( "object fields",
      M.M_move (payload ~objects:[ { rich_object with M.mo_fields = ints n } ] 0) );
    ( "directory oids",
      M.M_dir_update { objs = List.init n (fun i -> oid 1 (i + 1)); node = 1; at = 0.0 } );
  ]

let test_u16_counts_in_range () =
  List.iter
    (fun (what, msg) ->
      List.iter
        (fun (impl, blit) ->
          let stats = CS.create () in
          let back = M.decode ~blit ~impl ~stats (M.encode ~blit ~impl ~stats msg) in
          if back <> msg then
            Alcotest.failf "%s of 65535 under %s did not round trip" what
              (Enet.Wire.impl_name impl))
        tiers)
    (oversized 0xFFFF)

let test_u16_overflow_rejected () =
  List.iter
    (fun (what, msg) ->
      List.iter
        (fun (impl, blit) ->
          let stats = CS.create () in
          match M.encode ~blit ~impl ~stats msg with
          | _ ->
            Alcotest.failf "%s of 65536 under %s: encode must refuse" what
              (Enet.Wire.impl_name impl)
          | exception Enet.Wire.Writer.Oversize _ -> ())
        tiers)
    (oversized 0x10000)

(* A result parked as a word travels as the [Complete (Some v)] it
   stands for: the same bytes and charges under every tier, and it reads
   back as that [Complete]. *)
let test_word_writes_its_complete () =
  let encode (impl, blit) msg =
    let stats = CS.create () in
    let v = M.encode ~blit ~impl ~stats msg in
    (Enet.Wire.view_to_string v, CS.calls stats, CS.bytes stats)
  in
  List.iter
    (fun (what, w, bits) ->
      let move r = M.M_move (payload ~segments:[ segment (MF.Ms_parked r) ] 0) in
      let word = move (Ert.Thread.Complete_word (w, bits)) in
      let complete = move (Ert.Thread.Complete (Some (V.of_word w bits))) in
      List.iter
        (fun ((impl, blit) as tier) ->
          let name = Printf.sprintf "%s under %s" what (Enet.Wire.impl_name impl) in
          let ((bytes, _, _) as got) = encode tier word in
          if got <> encode tier complete then
            Alcotest.failf "%s: a word writes other bytes or charges than its Complete" name;
          let stats = CS.create () in
          if M.decode ~blit ~impl ~stats (Enet.Wire.view_of_string bytes) <> complete then
            Alcotest.failf "%s: a word does not read back as its Complete" name)
        tiers)
    [
      ("int", V.Wint, -5);
      ("int32 min", V.Wint, Int32.to_int Int32.min_int);
      ("false", V.Wbool, 0);
      ("true", V.Wbool, 1);
      ("reference", V.Wref, Ert.Oid.intern (oid 3 1));
    ]

let check = Alcotest.check

(* The frame writer against the loop it replaced, a [u16] slot and a
   [Value.write] per live value, kept here as the reference: on random
   frames over the word domain's edges, under each configuration, the
   same bytes and charges out, and back in the same frame for the same
   charges as the reference reader's. *)
let reference_write_frame w (f : MF.mi_frame) =
  let module W = Enet.Wire.Writer in
  let p = W.open_record w in
  W.u16 w f.MF.mf_class;
  W.u32 w f.MF.mf_code_oid;
  W.u16 w f.MF.mf_method;
  W.u16 w f.MF.mf_stop;
  W.u32 w f.MF.mf_self;
  let live = Frames.values f in
  W.u16 w (List.length live);
  List.iter
    (fun (slot, v) ->
      W.u16 w slot;
      V.write w v)
    live;
  W.close_record w p

let reference_read_frame r =
  let module R = Enet.Wire.Reader in
  let p = R.open_record r in
  let cls = R.u16 r in
  let code_oid = R.u32 r in
  let meth = R.u16 r in
  let stop = R.u16 r in
  let self = R.u32 r in
  let n = R.u16 r in
  let live =
    List.init n (fun _ ->
        let slot = R.u16 r in
        (slot, V.read r))
  in
  R.close_record r p;
  Frames.make ~cls ~code_oid ~meth ~stop ~self live

let frame_codec_matches_reference =
  QCheck.Test.make ~name:"frame codec matches the per-value reference" ~count:300
    (QCheck.make Test_translate.frame_gen) (fun f ->
      List.for_all
        (fun (impl, blit) ->
          let encode write =
            let stats = CS.create () in
            let w = Enet.Wire.Writer.create ~impl ~stats in
            if blit then Enet.Wire.Writer.batch w;
            write w f;
            let bytes = Enet.Wire.Writer.contents w in
            (bytes, (CS.calls stats, CS.bytes stats))
          in
          let decode read bytes =
            let stats = CS.create () in
            let r = Enet.Wire.Reader.create ~impl ~stats bytes in
            if blit then Enet.Wire.Reader.batch r;
            let back = read r in
            (back, Enet.Wire.Reader.at_end r, (CS.calls stats, CS.bytes stats))
          in
          let bytes, charges = encode MF.write_frame in
          let ref_bytes, ref_charges = encode reference_write_frame in
          let back, at_end, dcharges = decode MF.read_frame bytes in
          let ref_back, _, ref_dcharges = decode reference_read_frame bytes in
          String.equal bytes ref_bytes && charges = ref_charges && back = f && at_end
          && ref_back = f && dcharges = ref_dcharges)
        tiers)

(* Golden Table 1 numbers -------------------------------------------------- *)

(* The virtual-clock results of the reproduced Table 1 workload, three
   iterations.  The plan tier charges one call per datum (816 over the
   run), and nothing may move [Naive], whose numbers are the published
   baseline of this repo. *)
let test_table1_virtual_times_unchanged () =
  let sparc = A.by_id "sparc" and sun3 = A.by_id "sun3" in
  let run ?protocol ?wire_impl ?faults ~home ~dest () =
    Core.Workloads.measure_roundtrip ?protocol ?wire_impl ?faults ~home ~dest
      ~iters:3 ()
  in
  let us r = r.Core.Workloads.rt_us_per_trip in
  let orig = run ~protocol:Core.Cluster.Original ~home:sparc ~dest:sparc () in
  check (Alcotest.float 0.0) "original sparc<->sparc" 43432.0 (us orig);
  let naive = run ~wire_impl:Enet.Wire.Naive ~home:sparc ~dest:sparc () in
  check (Alcotest.float 0.0) "naive sparc<->sparc" 68343.0 (us naive);
  check Alcotest.int "naive bytes" 1254 naive.Core.Workloads.rt_bytes_sent;
  check Alcotest.int "naive messages" 6 naive.Core.Workloads.rt_messages;
  check Alcotest.int "naive conversion calls" 2628
    naive.Core.Workloads.rt_conversion_calls;
  let plan = run ~wire_impl:Enet.Wire.Plan ~home:sparc ~dest:sparc () in
  check (Alcotest.float 0.0) "plan sparc<->sparc" 55256.0 (us plan);
  check Alcotest.int "plan bytes == naive bytes" naive.Core.Workloads.rt_bytes_sent
    plan.Core.Workloads.rt_bytes_sent;
  check Alcotest.int "plan conversion calls, one per datum" 816
    plan.Core.Workloads.rt_conversion_calls;
  let het = run ~wire_impl:Enet.Wire.Naive ~home:sparc ~dest:sun3 () in
  check (Alcotest.float 0.0) "naive sparc<->sun3" 98330.0 (us het)

(* An empty fault plan stays invisible under the plan tier too *)
let test_plan_tier_ignores_empty_faults () =
  let sparc = A.by_id "sparc" in
  let plain =
    Core.Workloads.measure_roundtrip ~wire_impl:Enet.Wire.Plan ~home:sparc
      ~dest:sparc ~iters:3 ()
  in
  let faulted =
    Core.Workloads.measure_roundtrip ~wire_impl:Enet.Wire.Plan
      ~faults:(Fault.Plan.with_seed Fault.Plan.empty 42) ~home:sparc ~dest:sparc
      ~iters:3 ()
  in
  check (Alcotest.float 0.0) "virtual time"
    plain.Core.Workloads.rt_us_per_trip faulted.Core.Workloads.rt_us_per_trip;
  check Alcotest.int "bytes" plain.Core.Workloads.rt_bytes_sent
    faulted.Core.Workloads.rt_bytes_sent;
  check Alcotest.int "messages" plain.Core.Workloads.rt_messages
    faulted.Core.Workloads.rt_messages;
  check Alcotest.int "conversion calls" plain.Core.Workloads.rt_conversion_calls
    faulted.Core.Workloads.rt_conversion_calls

(* A run owes nothing to the runs before it in the process: the same
   Table 1 trip, run twice under each tier, publishes the same event
   stream and ends with the same counters. *)
let test_runs_independent () =
  let run wire_impl =
    let cl = Core.Cluster.create ~wire_impl ~archs:[ A.sparc; A.sparc ] () in
    ignore (Core.Cluster.compile_and_load cl ~name:"table1" Core.Workloads.table1_src);
    let events = Buffer.create 4096 in
    Core.Cluster.subscribe_events cl (fun ev ->
        Buffer.add_string events (Core.Events.to_string ev);
        Buffer.add_char events '\n');
    let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
    let tid =
      Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"trip" ~args:[ V.Vint 1l; V.Vint 3l ]
    in
    if Core.Cluster.run_until_result cl tid = None then Alcotest.fail "no Table 1 result";
    (Buffer.contents events, List.init 2 (Core.Cluster.node_counters cl))
  in
  List.iter
    (fun (impl, _) ->
      let name = Enet.Wire.impl_name impl in
      let events1, counters1 = run impl in
      let events2, counters2 = run impl in
      check Alcotest.string (name ^ ": event stream") events1 events2;
      if counters1 <> counters2 then Alcotest.failf "%s: the second run's counters differ" name)
    tiers

let suites =
  [
    ( "codec",
      [
        Alcotest.test_case "wire bytes and charges pinned per record" `Quick test_pinned;
        Alcotest.test_case "65535-element counts round-trip" `Quick test_u16_counts_in_range;
        Alcotest.test_case "65536-element counts refused at encode" `Quick
          test_u16_overflow_rejected;
        Alcotest.test_case "Table 1 virtual times unchanged" `Quick
          test_table1_virtual_times_unchanged;
        Alcotest.test_case "empty fault plan invisible under plan tier" `Quick
          test_plan_tier_ignores_empty_faults;
        Alcotest.test_case "a run does not depend on earlier runs" `Quick
          test_runs_independent;
        QCheck_alcotest.to_alcotest frame_codec_matches_reference;
        Alcotest.test_case "a parked word writes the Complete it stands for" `Quick
          test_word_writes_its_complete;
      ] );
  ]
