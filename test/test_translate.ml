(* Tests for the machine-dependent <-> machine-independent translation
   layer and the marshalled formats. *)

module A = Isa.Arch
module V = Ert.Value
module MF = Mobility.Mi_frame

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* Wire round trips ------------------------------------------------------ *)

(* the edges of the word domain: the int32 extremes and -1 (sign
   extension), and OIDs at the top of the node and serial fields, the
   largest being 0x7fffffff *)
let value_gen =
  let open QCheck.Gen in
  let edge_oid =
    map2
      (fun dn ds ->
        Ert.Oid.fresh_data ~node_id:(Ert.Oid.max_nodes - 1 - dn)
          ~serial:(Ert.Oid.max_serial - 1 - ds))
      (int_range 0 1) (int_range 0 1)
  in
  oneof
    [
      map (fun i -> V.Vint i) (map Int32.of_int (int_range (-1000000) 1000000));
      map (fun i -> V.Vint i) (oneofl [ Int32.min_int; Int32.max_int; -1l ]);
      map (fun f -> V.Vreal f) (map (fun i -> float_of_int i /. 16.0) (int_range (-1000) 1000));
      map (fun b -> V.Vbool b) bool;
      map (fun s -> V.Vstr s) (string_size ~gen:printable (int_range 0 30));
      map (fun i -> V.Vref (Ert.Oid.fresh_data ~node_id:(i mod 8) ~serial:(i mod 1000 + 1))) nat;
      map (fun o -> V.Vref o) edge_oid;
      return V.Vnil;
    ]

let frame_gen =
  let open QCheck.Gen in
  int_range 0 6 >>= fun n_slots ->
  list_size (return n_slots) value_gen >>= fun vals ->
  int_range 0 3 >>= fun cls ->
  int_range 0 4 >>= fun mth ->
  int_range 0 20 >>= fun stop ->
  return
    (Frames.make ~cls ~code_oid:(Int32.of_int (1000 + cls)) ~meth:mth ~stop
       ~self:(Ert.Oid.fresh_data ~node_id:1 ~serial:(cls + 1))
       (List.mapi (fun i v -> (i, v)) vals))

let segment_gen =
  let open QCheck.Gen in
  let resume_gen =
    let module S = Ert.Thread in
    oneof
      [
        return S.Run;
        map (fun v -> S.Deliver v) value_gen;
        map (fun v -> S.Complete (Some v)) value_gen;
        return (S.Complete None);
        map (fun s -> S.Complete_dequeue (Some s)) nat;
        return (S.Complete_dequeue None);
      ]
  in
  let status_gen =
    oneof
      [
        map (fun s -> MF.Ms_parked s) resume_gen;
        map (fun s -> MF.Ms_awaiting_reply s) (int_range 0 30);
        map
          (fun (q, dl) ->
            MF.Ms_blocked_monitor
              {
                mon = Ert.Oid.fresh_data ~node_id:2 ~serial:7;
                in_queue = q;
                cond = -1;
                deadline = dl;
              })
          (pair bool
             (oneof
                [ return None; map (fun d -> Some (float_of_int d)) (int_range 0 100000) ]));
      ]
  in
  list_size (int_range 0 4) frame_gen >>= fun frames ->
  status_gen >>= fun status ->
  bool >>= fun has_link ->
  return
    {
      MF.ms_seg_id = 12345;
      ms_thread = 67;
      ms_status = status;
      ms_frames = frames;
      ms_link = (if has_link then Some { Ert.Thread.ln_node = 3; ln_seg = 99 } else None);
      ms_result_type = Some Emc.Ast.Tint;
      ms_spawn = None;
    }

let seg_roundtrip impl =
  QCheck.Test.make
    ~name:(Printf.sprintf "mi_segment wire round trip (%s)" (Enet.Wire.impl_name impl))
    ~count:200 (QCheck.make segment_gen) (fun seg ->
      let stats = Enet.Conversion_stats.create () in
      let w = Enet.Wire.Writer.create ~impl ~stats in
      if impl = Enet.Wire.Blit then Enet.Wire.Writer.batch w;
      MF.write_segment w seg;
      let r = Enet.Wire.Reader.create ~impl ~stats (Enet.Wire.Writer.contents w) in
      if impl = Enet.Wire.Blit then Enet.Wire.Reader.batch r;
      let seg' = MF.read_segment r in
      seg' = seg)

let test_message_roundtrip () =
  let stats = Enet.Conversion_stats.create () in
  let messages =
    [
      Mobility.Marshal.M_invoke
        {
          target = Ert.Oid.fresh_data ~node_id:1 ~serial:4;
          callee_class = 2;
          callee_method = 1;
          args = [ V.Vint 42l; V.Vstr "hi"; V.Vreal 2.5; V.Vnil ];
          reply = { Ert.Thread.ln_node = 0; ln_seg = 77 };
          thread = 9;
          forwards = 2;
        };
      Mobility.Marshal.M_reply { to_seg = 77; value = V.Vbool true; thread = 9 };
      Mobility.Marshal.M_move_req
        { obj = Ert.Oid.fresh_data ~node_id:2 ~serial:5; dest = 3; forwards = 1 };
      Mobility.Marshal.M_move
        {
          mp_src = 1;
          mp_opt_level = 0;
          mp_objects =
            [
              {
                Mobility.Marshal.mo_oid = Ert.Oid.fresh_data ~node_id:1 ~serial:8;
                mo_class = 0;
                mo_fields = [| V.Vint 1l; V.Vstr "f"; V.Vnil |];
                mo_locked = true;
                mo_waiters = [ 11; 22 ];
                mo_cond_waiters = [ [ 33 ]; [] ];
              };
            ];
          mp_segments = [];
        };
    ]
  in
  List.iter
    (fun m ->
      let enc = Mobility.Marshal.encode ~impl:Enet.Wire.Naive ~stats m in
      let dec = Mobility.Marshal.decode ~impl:Enet.Wire.Naive ~stats enc in
      if dec <> m then
        Alcotest.failf "message did not round trip: %s" (Mobility.Marshal.describe m))
    messages

(* Cross-architecture capture equivalence -------------------------------- *)

(* Run the same program to the same move point on different architectures
   and compare the machine-independent payloads: slot indices, stop
   numbers and values must be identical — the whole point of the format. *)

let capture_src =
  {|
object Agent
  operation go[] -> [r : int]
    var a : int <- 1234567
    var x : real <- 6.5
    var s : string <- "carried"
    var b : bool <- true
    move self to 1
    r <- a
    if b and x == 6.5 and s == "carried" then
      r <- a + 1
    end if
  end go
end Agent
|}

let capture_payload ?(src = capture_src) arch =
  let prog = Emc.Compile.compile_exn ~name:"cap" ~archs:[ arch ] src in
  let k = Ert.Kernel.create ~node_id:0 ~arch () in
  Ert.Kernel.load_program k prog;
  let cc = Option.get (Emc.Compile.find_class prog "Agent") in
  let addr = Ert.Kernel.create_object k ~class_index:cc.Emc.Compile.cc_index in
  ignore (Ert.Kernel.spawn_root k ~target_addr:addr ~method_name:"go" ~args:[]);
  let rec to_move n =
    if n > 10000 then Alcotest.fail "never reached the move";
    match Ert.Kernel.step k with
    | [ Ert.Kernel.Oc_move { seg; obj_addr; dest_node } ] ->
      Mobility.Move.park_mover_for_test seg;
      Mobility.Move.perform_move k ~obj_addr ~dest:dest_node
    | _ -> to_move (n + 1)
  in
  to_move 0

let strip_frame (f : MF.mi_frame) =
  (* self OIDs embed the creating node and serial; identical here, but
     compare them anyway along with everything else *)
  (f.MF.mf_class, f.MF.mf_method, f.MF.mf_stop, Frames.values f, f.MF.mf_self)

let test_cross_arch_capture_equivalence () =
  let payloads = List.map (fun a -> (a, capture_payload a)) A.all in
  match payloads with
  | [] -> ()
  | (ref_arch, ref_payload) :: rest ->
    let ref_frames =
      List.concat_map
        (fun s -> List.map strip_frame s.MF.ms_frames)
        ref_payload.Mobility.Marshal.mp_segments
    in
    List.iter
      (fun (arch, payload) ->
        let frames =
          List.concat_map
            (fun s -> List.map strip_frame s.MF.ms_frames)
            payload.Mobility.Marshal.mp_segments
        in
        if frames <> ref_frames then
          Alcotest.failf
            "machine-independent capture differs between %s and %s" ref_arch.A.id
            arch.A.id;
        (* object payloads too *)
        let objs p =
          List.map
            (fun (o : Mobility.Marshal.move_object) ->
              (o.Mobility.Marshal.mo_class, o.mo_fields, o.mo_locked, o.mo_waiters))
            p.Mobility.Marshal.mp_objects
        in
        if objs payload <> objs ref_payload then
          Alcotest.failf "object capture differs between %s and %s" ref_arch.A.id
            arch.A.id)
      rest

(* the 13 variables of the Table 1 workload land in the MI frame *)
let test_capture_slot_values () =
  let payload = capture_payload A.vax in
  let all_values =
    List.concat_map
      (fun s ->
        List.concat_map
          (fun f -> List.map snd (Frames.values f))
          s.MF.ms_frames)
      payload.Mobility.Marshal.mp_segments
  in
  let has v = List.exists (V.equal v) all_values in
  if not (has (V.Vint 1234567l)) then Alcotest.fail "int local not captured";
  if not (has (V.Vreal 6.5)) then Alcotest.fail "real local not captured (VAX F!)";
  if not (has (V.Vstr "carried")) then Alcotest.fail "string local not captured";
  if not (has (V.Vbool true)) then Alcotest.fail "bool local not captured"

(* The word domain's edges live across a move: an int at each int32
   extreme, a false, a nil reference and a reference to an object that
   stays behind (the landed thread invokes it remotely, so its OID must
   arrive intact).  The result sums one flag per value that arrived. *)
let edge_src =
  {|
object Cell
  operation get[] -> [r : int]
    r <- 16
  end get
end Cell

object Agent
  operation go[] -> [r : int]
    var hi : int <- 2147483647
    var lo : int <- 0 - 2147483647 - 1
    var f : bool <- false
    var none : Cell <- nil
    var c : Cell <- new Cell
    move self to 1
    r <- 0
    if hi == 2147483647 and hi > 0 then
      r <- r + 1
    end if
    if lo == 0 - 2147483647 - 1 and lo < 0 then
      r <- r + 2
    end if
    if f then
      r <- r + 100
    else
      r <- r + 4
    end if
    if none == nil then
      r <- r + 8
    end if
    if c != nil then
      r <- r + c.get[]
    end if
  end go
end Agent
|}

(* Per source architecture: the captured frames hold the edge values
   canonically, as the words a decoder would build from the same values
   (an int sign-extended, so the minimum is negative), and a wire round
   trip under each configuration gives the same frames.  Then the move
   lands on every destination architecture and the program checks what
   arrived. *)
let check_edge_capture arch =
  let payload = capture_payload ~src:edge_src arch in
  let segs = payload.Mobility.Marshal.mp_segments in
  let frames = List.concat_map (fun s -> s.MF.ms_frames) segs in
  let values = List.concat_map (fun f -> List.map snd (Frames.values f)) frames in
  let has what v =
    if not (List.exists (V.equal v) values) then
      Alcotest.failf "%s: %s not captured" arch.A.id what
  in
  has "int32 max" (V.Vint Int32.max_int);
  has "int32 min" (V.Vint Int32.min_int);
  has "false" (V.Vbool false);
  has "nil" V.Vnil;
  if not (List.exists (function V.Vref _ -> true | _ -> false) values) then
    Alcotest.failf "%s: reference not captured" arch.A.id;
  List.iter
    (fun (f : MF.mi_frame) ->
      let canonical =
        Frames.make ~cls:f.MF.mf_class ~code_oid:f.MF.mf_code_oid ~meth:f.MF.mf_method
          ~stop:f.MF.mf_stop ~self:f.MF.mf_self (Frames.values f)
      in
      if canonical <> f then Alcotest.failf "%s: captured words not canonical" arch.A.id)
    frames;
  List.iter
    (fun (impl, batch) ->
      let stats = Enet.Conversion_stats.create () in
      let w = Enet.Wire.Writer.create ~impl ~stats in
      if batch then Enet.Wire.Writer.batch w;
      List.iter (MF.write_segment w) segs;
      let r = Enet.Wire.Reader.of_view ~impl ~stats (Enet.Wire.Writer.handoff w) in
      if batch then Enet.Wire.Reader.batch r;
      let back = List.map (fun _ -> MF.read_segment r) segs in
      if back <> segs then
        Alcotest.failf "%s: capture differs after a %s round trip" arch.A.id
          (Enet.Wire.impl_name impl))
    [ (Enet.Wire.Naive, false); (Enet.Wire.Plan, false); (Enet.Wire.Blit, true) ]

let test_edge_values_every_pair () =
  List.iter
    (fun src ->
      check_edge_capture src;
      List.iter
        (fun dst ->
          let cl = Core.Cluster.create ~archs:[ src; dst ] () in
          ignore (Core.Cluster.compile_and_load cl ~name:"edge" edge_src);
          let agent = Core.Cluster.create_object cl ~node:0 ~class_name:"Agent" in
          let tid = Core.Cluster.spawn cl ~node:0 ~target:agent ~op:"go" ~args:[] in
          let got =
            match Core.Cluster.run_until_result cl tid with
            | Some v -> Format.asprintf "%a" V.pp v
            | None -> "no result"
          in
          check Alcotest.string (src.A.id ^ " -> " ^ dst.A.id) "31" got)
        A.all)
    A.all

let suites =
  [
    ( "translate",
      [
        qcheck (seg_roundtrip Enet.Wire.Naive);
        qcheck (seg_roundtrip Enet.Wire.Plan);
        qcheck (seg_roundtrip Enet.Wire.Blit);
        Alcotest.test_case "message round trips" `Quick test_message_roundtrip;
        Alcotest.test_case "MI capture identical across architectures" `Quick
          test_cross_arch_capture_equivalence;
        Alcotest.test_case "captured slot values" `Quick test_capture_slot_values;
        Alcotest.test_case "edge values cross every architecture pair" `Quick
          test_edge_values_every_pair;
      ] );
  ]
