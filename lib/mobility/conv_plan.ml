module W = Enet.Wire.Writer
module R = Enet.Wire.Reader
module V = Ert.Value
module T = Emc.Template

type pair = {
  pr_src : Isa.Arch.t;
  pr_dst : Isa.Arch.t;
}

let pair_key p = p.pr_src.Isa.Arch.id ^ ">" ^ p.pr_dst.Isa.Arch.id

type hole_kind = H_i32 | H_f64 | H_bool

type hole = {
  h_off : int;  (* offset of the value bytes within the piece *)
  h_idx : int;  (* which value fills the hole *)
  h_kind : hole_kind;
}

type piece =
  | P_fixed of {
      skel : string;
      holes : hole array;
      p_calls : int;  (* precomputed per-datum accounting *)
      p_bytes : int;
    }
  | P_value of int  (* value index, encoded per-datum (dynamic shape) *)

type section = {
  sp_count : int;
  sp_slots : int array;  (* u16 prefixes in wire order; [||] if unprefixed *)
  sp_kinds : hole_kind option array;  (* per value: fixed kind or dynamic *)
  sp_pieces : piece array;
  sp_fixed_bytes : int;
  sp_dyn : int;
  sp_strategy : string;
}

let section_count s = s.sp_count
let section_fixed_bytes s = s.sp_fixed_bytes
let section_dyn_count s = s.sp_dyn
let section_strategy s = s.sp_strategy

type frame_plan = {
  fp_class : int;
  fp_code_oid : int32;
  fp_method : int;
  fp_stop : int;
  fp_head : string;  (* class u16, code_oid u32, method u16, stop u16, self hole *)
  fp_section : section;
}

let frame_section fp = fp.fp_section

(* ------------------------------------------------------------------ *)
(* Compilation *)

let put16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 1) (Char.chr (v land 0xFF))

let put32 b off v =
  let byte n = Char.chr (Int32.to_int (Int32.shift_right_logical v n) land 0xFF) in
  Bytes.set b off (byte 24);
  Bytes.set b (off + 1) (byte 16);
  Bytes.set b (off + 2) (byte 8);
  Bytes.set b (off + 3) (byte 0)

let fixed_kind : Emc.Ast.typ -> (int * hole_kind * int) option = function
  (* Only types the kernel always rematerialises into a single value
     constructor (see [Kernel.value_of_raw]) can be fused: their wire tag
     is a compile-time constant.  A string/object/vector/nil slot can
     hold Vnil at runtime, so its tag is dynamic. *)
  | Emc.Ast.Tint -> Some (V.tag_int, H_i32, 4)
  | Emc.Ast.Treal -> Some (V.tag_real, H_f64, 8)
  | Emc.Ast.Tbool -> Some (V.tag_bool, H_bool, 1)
  | Emc.Ast.Tstring | Emc.Ast.Tobj _ | Emc.Ast.Tvec _ | Emc.Ast.Tnil -> None

(* The strategy a real per-pair conversion routine would fuse to for the
   fixed bytes: the wire is big-endian IEEE, so a big-endian IEEE machine
   blits its native image while a little-endian or VAX-float endpoint
   adds swap / float-convert steps.  Homogeneous big-endian pairs
   therefore collapse to a single blit on both ends. *)
let strategy_of ~pair ~has_real =
  let side (a : Isa.Arch.t) =
    let swaps = match a.Isa.Arch.endian with
      | Isa.Endian.Little -> true
      | Isa.Endian.Big -> false
    in
    let fconv =
      has_real
      && not (Isa.Float_format.equal a.Isa.Arch.float_format Isa.Float_format.Ieee_single)
    in
    match swaps, fconv with
    | false, false -> "blit"
    | true, false -> "swap16/32"
    | false, true -> "fconv"
    | true, true -> "swap32/64+fconv"
  in
  let s = side pair.pr_src and d = side pair.pr_dst in
  if String.equal s "blit" && String.equal d "blit" then "blit"
  else s ^ ">" ^ d

let compile_section ~pair ~prefixed (elems : (int * Emc.Ast.typ) array) : section =
  let n = Array.length elems in
  let pieces = ref [] in
  let run = Buffer.create 64 in
  let holes = ref [] in
  let calls = ref 0 in
  let bytes = ref 0 in
  let fixed_bytes = ref 0 in
  let dyn = ref 0 in
  let has_real = ref false in
  let flush () =
    if Buffer.length run > 0 then begin
      let skel = Buffer.contents run in
      pieces :=
        P_fixed
          { skel; holes = Array.of_list (List.rev !holes); p_calls = !calls; p_bytes = !bytes }
        :: !pieces;
      fixed_bytes := !fixed_bytes + String.length skel;
      Buffer.clear run;
      holes := [];
      calls := 0;
      bytes := 0
    end
  in
  let const16 v =
    Buffer.add_char run (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char run (Char.chr (v land 0xFF));
    incr calls;
    bytes := !bytes + 2
  in
  (* the count prefix is itself a compile-time constant *)
  const16 n;
  Array.iteri
    (fun i (slot, ty) ->
      if prefixed then const16 slot;
      match fixed_kind ty with
      | Some (tag, kind, size) ->
        if kind = H_f64 then has_real := true;
        Buffer.add_char run (Char.chr tag);
        incr calls;
        bytes := !bytes + 1;
        holes := { h_off = Buffer.length run; h_idx = i; h_kind = kind } :: !holes;
        Buffer.add_string run (String.make size '\000');
        incr calls;
        bytes := !bytes + size
      | None ->
        incr dyn;
        flush ();
        pieces := P_value i :: !pieces)
    elems;
  flush ();
  {
    sp_count = n;
    sp_slots = (if prefixed then Array.map fst elems else [||]);
    sp_kinds = Array.map (fun (_, ty) -> Option.map (fun (_, k, _) -> k) (fixed_kind ty)) elems;
    sp_pieces = Array.of_list (List.rev !pieces);
    sp_fixed_bytes = !fixed_bytes;
    sp_dyn = !dyn;
    sp_strategy = strategy_of ~pair ~has_real:!has_real;
  }

let compile_frame ~pair (cc : Emc.Compile.compiled_class) ~stop =
  let ct = cc.Emc.Compile.cc_template in
  match T.stop_by_id ct stop with
  | exception Invalid_argument _ -> None
  | st ->
    let op = T.op_of_stop ct stop in
    let elems =
      Array.of_list (List.map (fun es -> (es.T.es_slot, es.T.es_type)) st.T.st_live)
    in
    let head = Bytes.make 14 '\000' in
    put16 head 0 cc.Emc.Compile.cc_index;
    put32 head 2 cc.Emc.Compile.cc_oid;
    put16 head 6 op.T.ot_index;
    put16 head 8 stop;
    (* bytes 10-13: the self-OID hole *)
    Some
      {
        fp_class = cc.Emc.Compile.cc_index;
        fp_code_oid = cc.Emc.Compile.cc_oid;
        fp_method = op.T.ot_index;
        fp_stop = stop;
        fp_head = Bytes.unsafe_to_string head;
        fp_section = compile_section ~pair ~prefixed:true elems;
      }

(* ------------------------------------------------------------------ *)
(* Encode / decode *)

let kind_matches k (v : V.t) =
  match k, v with
  | H_i32, V.Vint _ | H_f64, V.Vreal _ | H_bool, V.Vbool _ -> true
  | (H_i32 | H_f64 | H_bool), _ -> false

let section_applies s (value : int -> V.t) =
  let ok = ref true in
  Array.iteri
    (fun i ko ->
      match ko with
      | Some k -> if not (kind_matches k (value i)) then ok := false
      | None -> ())
    s.sp_kinds;
  !ok

let write_pieces s w (value : int -> V.t) =
  Array.iter
    (function
      | P_fixed { skel; holes; p_calls; p_bytes } ->
        let off = W.blit w skel in
        Array.iter
          (fun h ->
            match h.h_kind, value h.h_idx with
            | H_i32, V.Vint x -> W.poke32 w ~at:(off + h.h_off) x
            | H_f64, V.Vreal x -> W.poke64 w ~at:(off + h.h_off) (Int64.bits_of_float x)
            | H_bool, V.Vbool b -> W.poke8 w ~at:(off + h.h_off) (if b then 1 else 0)
            | (H_i32 | H_f64 | H_bool), _ -> assert false (* applies-checked *))
          holes;
        W.add_charge w ~calls:p_calls ~bytes:p_bytes
      | P_value i -> V.write w (value i))
    s.sp_pieces

let write_section s w value =
  if Array.length s.sp_kinds <> s.sp_count || not (section_applies s value) then false
  else begin
    write_pieces s w value;
    true
  end

(* [write_pieces] specialised to a slots array: no closure per frame *)
let write_pieces_slots s w (slots : (int * V.t) array) =
  Array.iter
    (function
      | P_fixed { skel; holes; p_calls; p_bytes } ->
        let off = W.blit w skel in
        Array.iter
          (fun h ->
            match h.h_kind, snd (Array.unsafe_get slots h.h_idx) with
            | H_i32, V.Vint x -> W.poke32 w ~at:(off + h.h_off) x
            | H_f64, V.Vreal x -> W.poke64 w ~at:(off + h.h_off) (Int64.bits_of_float x)
            | H_bool, V.Vbool b -> W.poke8 w ~at:(off + h.h_off) (if b then 1 else 0)
            | (H_i32 | H_f64 | H_bool), _ -> assert false (* applies-checked *))
          holes;
        W.add_charge w ~calls:p_calls ~bytes:p_bytes
      | P_value i -> V.write w (snd (Array.unsafe_get slots i)))
    s.sp_pieces

let read_section s r =
  match R.peek_u16 r with
  | Some n when n = s.sp_count ->
    let values = Array.make s.sp_count V.Vnil in
    Array.iter
      (function
        | P_fixed { skel; holes; p_calls; p_bytes } ->
          let off = R.block r (String.length skel) in
          Array.iter
            (fun h ->
              values.(h.h_idx) <-
                (match h.h_kind with
                | H_i32 -> V.Vint (R.get32_at r (off + h.h_off))
                | H_f64 -> V.Vreal (Int64.float_of_bits (R.get64_at r (off + h.h_off)))
                | H_bool -> V.Vbool (R.get8_at r (off + h.h_off) <> 0)))
            holes;
          R.add_charge r ~calls:p_calls ~bytes:p_bytes
        | P_value i -> values.(i) <- V.read r)
      s.sp_pieces;
    Some values
  | Some _ | None -> None

let write_frame fp w ~cls ~code_oid ~meth ~stop ~self ~(slots : (int * V.t) array) =
  let s = fp.fp_section in
  let applies =
    fp.fp_class = cls
    && Int32.equal fp.fp_code_oid code_oid
    && fp.fp_method = meth && fp.fp_stop = stop
    && Array.length slots = s.sp_count
    &&
    (* one pass: slot numbers and fixed-kind constructors together *)
    let ok = ref true in
    for i = 0 to s.sp_count - 1 do
      let sl, v = Array.unsafe_get slots i in
      if sl <> Array.unsafe_get s.sp_slots i then ok := false
      else
        match Array.unsafe_get s.sp_kinds i with
        | Some k -> if not (kind_matches k v) then ok := false
        | None -> ()
    done;
    !ok
  in
  if not applies then false
  else begin
    let off = W.blit w fp.fp_head in
    W.poke32 w ~at:(off + 10) self;
    (* class + code_oid + method + stop + self: five datums, 14 bytes *)
    W.add_charge w ~calls:5 ~bytes:14;
    write_pieces_slots s w slots;
    true
  end

let read_frame_slots fp r =
  (* like [read_section], but building the (slot, value) pairs directly *)
  let s = fp.fp_section in
  match R.peek_u16 r with
  | Some n when n = s.sp_count ->
    let slots = Array.make s.sp_count (0, V.Vnil) in
    Array.iter
      (function
        | P_fixed { skel; holes; p_calls; p_bytes } ->
          let off = R.block r (String.length skel) in
          Array.iter
            (fun h ->
              let v =
                match h.h_kind with
                | H_i32 -> V.Vint (R.get32_at r (off + h.h_off))
                | H_f64 -> V.Vreal (Int64.float_of_bits (R.get64_at r (off + h.h_off)))
                | H_bool -> V.Vbool (R.get8_at r (off + h.h_off) <> 0)
              in
              Array.unsafe_set slots h.h_idx (Array.unsafe_get s.sp_slots h.h_idx, v))
            holes;
          R.add_charge r ~calls:p_calls ~bytes:p_bytes
        | P_value i -> slots.(i) <- (s.sp_slots.(i), V.read r))
      s.sp_pieces;
    Some slots
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* The memo cache *)

type entry =
  | E_frame of frame_plan
  | E_fields of section
  | E_none  (* negative-cached: nothing to fuse for this key *)

type cache = {
  mutable cp_prog : Emc.Compile.program option;
  cp_pairs : (string, (int, entry) Hashtbl.t) Hashtbl.t;
      (* pair key -> per-pair plan table; sub-tables are reset in place on
         [set_program] so outstanding [use]s stay valid *)
  mutable cp_compiles : int;
  mutable cp_hits : int;
}

let create_cache () =
  { cp_prog = None; cp_pairs = Hashtbl.create 8; cp_compiles = 0; cp_hits = 0 }

let set_program c prog =
  c.cp_prog <- Some prog;
  Hashtbl.iter (fun _ tbl -> Hashtbl.reset tbl) c.cp_pairs

let compiles c = c.cp_compiles
let hits c = c.cp_hits

(* A [use] interns the pair once: the hot path looks plans up in the
   per-pair table with an immediate int key, no string hashing. *)
type use = {
  u_cache : cache;
  u_pair : pair;
  u_tbl : (int, entry) Hashtbl.t;
  (* two one-entry memos: migrations hit the same (class, stop)
     repeatedly, but a payload alternates frame and field-section
     lookups, so a single shared slot would thrash *)
  mutable u_frame_key : int;
  mutable u_frame : entry option;
  mutable u_fields_key : int;
  mutable u_fields : entry option;
}

let make_use cache pair =
  let key = pair_key pair in
  let tbl =
    match Hashtbl.find_opt cache.cp_pairs key with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 32 in
      Hashtbl.add cache.cp_pairs key t;
      t
  in
  {
    u_cache = cache;
    u_pair = pair;
    u_tbl = tbl;
    u_frame_key = min_int;
    u_frame = None;
    u_fields_key = min_int;
    u_fields = None;
  }

let class_of_prog prog class_index =
  let classes = prog.Emc.Compile.p_classes in
  if class_index < 0 || class_index >= Array.length classes then None
  else Some (Emc.Compile.class_by_index prog class_index)

let lookup_slow use ~key ~class_index ~compile =
  let c = use.u_cache in
  match Hashtbl.find_opt use.u_tbl key with
  | Some e ->
    c.cp_hits <- c.cp_hits + 1;
    Some e
  | None -> (
    match c.cp_prog with
    | None -> None
    | Some prog -> (
      match class_of_prog prog class_index with
      | None -> None
      | Some cc ->
        c.cp_compiles <- c.cp_compiles + 1;
        let e = compile cc in
        Hashtbl.add use.u_tbl key e;
        Some e))

let frame_plan_for use ~class_index ~stop =
  let key = (class_index lsl 16) lor (stop land 0xFFFF) in
  let entry =
    if use.u_frame_key = key then begin
      use.u_cache.cp_hits <- use.u_cache.cp_hits + 1;
      use.u_frame
    end
    else begin
      let e =
        lookup_slow use ~key ~class_index ~compile:(fun cc ->
            match compile_frame ~pair:use.u_pair cc ~stop with
            | Some fp -> E_frame fp
            | None -> E_none)
      in
      (match e with
      | Some _ ->
        use.u_frame_key <- key;
        use.u_frame <- e
      | None -> ());
      e
    end
  in
  match entry with
  | Some (E_frame fp) -> Some fp
  | Some (E_fields _ | E_none) | None -> None

let section_fuses s =
  Array.exists
    (function P_fixed { holes; _ } -> Array.length holes > 0 | P_value _ -> false)
    s.sp_pieces

let fields_plan_for use ~class_index =
  let key = (class_index lsl 16) lor 0xFFFF (* stop = -1 *) in
  let entry =
    if use.u_fields_key = key then begin
      use.u_cache.cp_hits <- use.u_cache.cp_hits + 1;
      use.u_fields
    end
    else begin
      let e =
        lookup_slow use ~key ~class_index ~compile:(fun cc ->
            let ct = cc.Emc.Compile.cc_template in
            let elems = Array.map (fun (_, ty) -> (0, ty)) ct.T.ct_fields in
            let s = compile_section ~pair:use.u_pair ~prefixed:false elems in
            (* a section with nothing to fuse beyond its count prefix is
               negative-cached: the interpretive path emits the same bytes
               with the same accounting, without the plan machinery *)
            if section_fuses s then E_fields s else E_none)
      in
      (match e with
      | Some _ ->
        use.u_fields_key <- key;
        use.u_fields <- e
      | None -> ());
      e
    end
  in
  match entry with
  | Some (E_fields s) -> Some s
  | Some (E_frame _ | E_none) | None -> None

let describe use ~class_index ~stop =
  match frame_plan_for use ~class_index ~stop with
  | None -> None
  | Some fp ->
    let s = fp.fp_section in
    Some
      (Printf.sprintf
         "plan class=%d stop=%d [%s]: %d slots, %d skeleton bytes in %d piece(s), %d dynamic"
         fp.fp_class fp.fp_stop s.sp_strategy s.sp_count (14 + s.sp_fixed_bytes)
         (Array.length s.sp_pieces) s.sp_dyn)
