type impl = Naive | Plan | Blit

let impl_name = function
  | Naive -> "naive"
  | Plan -> "plan"
  | Blit -> "blit"

let impl_of_string = function
  | "naive" -> Some Naive
  | "plan" -> Some Plan
  | "blit" -> Some Blit
  | _ -> None

(* Conversion-call accounting.  The naive implementation charges one
   procedure call per byte moved plus one for the datum itself (the
   recursive-descent entry), giving the paper's 1-2 calls per byte; the
   other tiers charge a single call per datum. *)
let charge impl stats ~bytes =
  Conversion_stats.add_bytes stats bytes;
  match impl with
  | Naive -> Conversion_stats.add_calls stats (bytes + 1)
  | Plan | Blit -> Conversion_stats.add_calls stats 1

type view = {
  vw_bytes : Bytes.t;
  vw_off : int;
  vw_len : int;
  vw_pooled : bool;
}

let view_of_string s =
  (* read-only aliasing of the string's storage: no copy on send *)
  { vw_bytes = Bytes.unsafe_of_string s; vw_off = 0; vw_len = String.length s; vw_pooled = false }

let view_to_string v = Bytes.sub_string v.vw_bytes v.vw_off v.vw_len
let view_length v = v.vw_len

let view_get v i =
  if i < 0 || i >= v.vw_len then invalid_arg "Wire.view_get";
  Bytes.get v.vw_bytes (v.vw_off + i)

let sub_view v ~pos ~len =
  if pos < 0 || len < 0 || pos + len > v.vw_len then invalid_arg "Wire.sub_view";
  { vw_bytes = v.vw_bytes; vw_off = v.vw_off + pos; vw_len = len; vw_pooled = false }

module Pool = struct
  let free_list : Bytes.t list ref = ref []
  let max_kept = 64
  let n_kept = ref 0
  let hits_c = ref 0
  let misses_c = ref 0
  let handoffs_c = ref 0
  let returned_c = ref 0

  let take () =
    match !free_list with
    | b :: rest ->
      free_list := rest;
      decr n_kept;
      incr hits_c;
      b
    | [] ->
      incr misses_c;
      Bytes.create 256

  let recycle b =
    (* counted even when the free list is full and the buffer is dropped:
       [returned] tracks ownership given back, not buffers kept *)
    incr returned_c;
    if !n_kept < max_kept then begin
      free_list := b :: !free_list;
      incr n_kept
    end

  let hits () = !hits_c
  let misses () = !misses_c
  let handoffs () = !handoffs_c
  let returned () = !returned_c
  let in_flight () = !hits_c + !misses_c - !returned_c

  let reset () =
    free_list := [];
    n_kept := 0;
    hits_c := 0;
    misses_c := 0;
    handoffs_c := 0;
    returned_c := 0
end

let release_view v = if v.vw_pooled then Pool.recycle v.vw_bytes

module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable pos : int;
    mutable live : bool;
    impl : impl;
    stats : Conversion_stats.t;
    mutable batched : bool;
    mutable in_record : bool;  (* datum charges suspended until [close_record] *)
  }

  (* The naive tier takes a fresh buffer per message, grown by doubling;
     the pool belongs to the other tiers.  Pooling it would put [Ev_pool]
     events into the default tier's event stream, and their hit/miss
     split depends on what ran earlier in the process.  The bytes and
     the accounting are the same either way. *)
  let create ~impl ~stats =
    let buf = match impl with Naive -> Bytes.create 16 | Plan | Blit -> Pool.take () in
    { buf; pos = 0; live = true; impl; stats; batched = false; in_record = false }

  let batch t = t.batched <- true
  let charge t ~bytes = if not t.in_record then charge t.impl t.stats ~bytes

  let open_record t =
    if t.batched then t.in_record <- true;
    t.pos

  (* a batched record costs one conversion call over its bytes *)
  let close_record t p =
    if t.batched then begin
      t.in_record <- false;
      Conversion_stats.add_calls t.stats 1;
      Conversion_stats.add_bytes t.stats (t.pos - p)
    end

  let ensure t n =
    if not t.live then invalid_arg "Wire.Writer: use after free/handoff";
    let need = t.pos + n in
    let cap = Bytes.length t.buf in
    if need > cap then begin
      let cap' = max (cap * 2) need in
      let buf' = Bytes.create cap' in
      Bytes.blit t.buf 0 buf' 0 t.pos;
      t.buf <- buf'
    end

  let u8 t v =
    charge t ~bytes:1;
    ensure t 1;
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (v land 0xFF));
    t.pos <- t.pos + 1

  let raw_u16 t v =
    ensure t 2;
    Bytes.set_uint16_be t.buf t.pos v;
    t.pos <- t.pos + 2

  (* every count and index on the wire is a u16: one that does not fit
     must fail here, not reach the receiver masked to 16 bits *)
  let u16 t v =
    if v < 0 || v > 0xFFFF then
      invalid_arg (Printf.sprintf "Wire.Writer.u16: %d out of range" v);
    charge t ~bytes:2;
    raw_u16 t v

  let u32 t v =
    charge t ~bytes:4;
    ensure t 4;
    Bytes.set_int32_be t.buf t.pos v;
    t.pos <- t.pos + 4

  let i32 = u32

  (* [i32] for a word held in an [int]: the low 32 bits, with the same
     bytes and charge, and no [int32] box at the call *)
  let i32_bits t v =
    charge t ~bytes:4;
    ensure t 4;
    Bytes.set_uint16_be t.buf t.pos ((v lsr 16) land 0xFFFF);
    Bytes.set_uint16_be t.buf (t.pos + 2) (v land 0xFFFF);
    t.pos <- t.pos + 4

  let f64 t v =
    charge t ~bytes:8;
    ensure t 8;
    Bytes.set_int64_be t.buf t.pos (Int64.bits_of_float v);
    t.pos <- t.pos + 8

  let bool t v = u8 t (if v then 1 else 0)

  let str t s =
    let len = String.length s in
    if len > 0xFFFF then invalid_arg "Wire.Writer.str: string too long";
    charge t ~bytes:(2 + len);
    raw_u16 t len;
    ensure t len;
    Bytes.blit_string s 0 t.buf t.pos len;
    t.pos <- t.pos + len

  let length t = t.pos
  let contents t = Bytes.sub_string t.buf 0 t.pos

  let free t =
    if t.live then begin
      t.live <- false;
      match t.impl with Naive -> () | Plan | Blit -> Pool.recycle t.buf
    end

  let handoff t =
    if not t.live then invalid_arg "Wire.Writer.handoff: writer already dead";
    t.live <- false;
    let pooled = match t.impl with Naive -> false | Plan | Blit -> true in
    if pooled then incr Pool.handoffs_c;
    { vw_bytes = t.buf; vw_off = 0; vw_len = t.pos; vw_pooled = pooled }
end

module Reader = struct
  type t = {
    data : Bytes.t;
    limit : int;  (* absolute *)
    mutable pos : int;  (* absolute *)
    impl : impl;
    stats : Conversion_stats.t;
    mutable batched : bool;
    mutable in_record : bool;
  }

  exception Underflow

  let create ~impl ~stats data =
    let b = Bytes.unsafe_of_string data in
    {
      data = b;
      limit = Bytes.length b;
      pos = 0;
      impl;
      stats;
      batched = false;
      in_record = false;
    }

  let of_view ~impl ~stats v =
    {
      data = v.vw_bytes;
      limit = v.vw_off + v.vw_len;
      pos = v.vw_off;
      impl;
      stats;
      batched = false;
      in_record = false;
    }

  let batch t = t.batched <- true
  let charge t ~bytes = if not t.in_record then charge t.impl t.stats ~bytes

  let open_record t =
    if t.batched then t.in_record <- true;
    t.pos

  (* a batched record costs one conversion call over its bytes *)
  let close_record t p =
    if t.batched then begin
      t.in_record <- false;
      Conversion_stats.add_calls t.stats 1;
      Conversion_stats.add_bytes t.stats (t.pos - p)
    end

  let take t n =
    if t.pos + n > t.limit then raise Underflow;
    let p = t.pos in
    t.pos <- p + n;
    p

  let u8 t =
    charge t ~bytes:1;
    Bytes.get_uint8 t.data (take t 1)

  let raw_u16 t = Bytes.get_uint16_be t.data (take t 2)

  let u16 t =
    charge t ~bytes:2;
    raw_u16 t

  let u32 t =
    charge t ~bytes:4;
    Bytes.get_int32_be t.data (take t 4)

  let i32 = u32

  (* [i32] sign-extended into an [int] *)
  let i32_bits t =
    charge t ~bytes:4;
    let p = take t 4 in
    let v = (Bytes.get_uint16_be t.data p lsl 16) lor Bytes.get_uint16_be t.data (p + 2) in
    (v lxor 0x8000_0000) - 0x8000_0000

  let f64 t =
    charge t ~bytes:8;
    Int64.float_of_bits (Bytes.get_int64_be t.data (take t 8))

  let bool t = u8 t <> 0

  let str t =
    let len = raw_u16 t in
    charge t ~bytes:(2 + len);
    let p = take t len in
    Bytes.sub_string t.data p len

  let at_end t = t.pos >= t.limit
end
