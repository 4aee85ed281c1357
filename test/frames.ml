(* Helpers for tests that state machine-independent frames as (slot,
   value) lists: [make] packs such a list into a frame's tags, words and
   boxed values, and [values] unpacks it again. *)

module V = Ert.Value
module MF = Mobility.Mi_frame

let make ~cls ~code_oid ~meth ~stop ~self (live : (int * V.t) list) =
  let n = List.length live in
  let slots = Array.make n 0 and tags = Bytes.make n '\000' and words = Array.make n 0 in
  let boxed = ref [] and nboxed = ref 0 in
  List.iteri
    (fun i (slot, v) ->
      slots.(i) <- slot;
      let box tag =
        boxed := v :: !boxed;
        incr nboxed;
        (tag, !nboxed - 1)
      in
      let tag, word =
        match (v : V.t) with
        | V.Vint x -> (V.tag_int, Int32.to_int x)
        | V.Vbool b -> (V.tag_bool, Bool.to_int b)
        | V.Vref oid -> (V.tag_ref, Ert.Oid.intern oid)
        | V.Vnil -> (V.tag_nil, 0)
        | V.Vreal _ -> box V.tag_real
        | V.Vstr _ -> box V.tag_str
        | V.Vvec _ -> box V.tag_vec
      in
      Bytes.set_uint8 tags i tag;
      words.(i) <- word)
    live;
  {
    MF.mf_class = cls;
    mf_code_oid = code_oid;
    mf_method = meth;
    mf_stop = stop;
    mf_slots = slots;
    mf_tags = tags;
    mf_words = words;
    mf_boxed = Array.of_list (List.rev !boxed);
    mf_self = self;
  }

let value (f : MF.mi_frame) i =
  let tag = Bytes.get_uint8 f.MF.mf_tags i and word = f.MF.mf_words.(i) in
  if MF.is_boxed_tag tag then f.MF.mf_boxed.(word)
  else if tag = V.tag_int then V.Vint (Int32.of_int word)
  else if tag = V.tag_bool then V.Vbool (word <> 0)
  else if tag = V.tag_ref then V.Vref (Int32.of_int word)
  else V.Vnil

let values (f : MF.mi_frame) =
  List.init (Array.length f.MF.mf_slots) (fun i -> (f.MF.mf_slots.(i), value f i))
