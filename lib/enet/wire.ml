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

  (* The naive tier mirrors the seed's host path: a fresh, small buffer
     per message, grown by doubling — the pool belongs to the other
     tiers.  The virtual accounting is unaffected either way. *)
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

  (* The naive tier's host path is deliberately a non-inlined call per
     byte, mirroring the prototype's per-byte conversion procedures, so
     the host-time ablation measures what the cost model charges for. *)
  let[@inline never] naive_put t b =
    ensure t 1;
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (b land 0xFF));
    t.pos <- t.pos + 1

  let raw_put t b =
    ensure t 1;
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (b land 0xFF));
    t.pos <- t.pos + 1

  let u8 t v =
    charge t ~bytes:1;
    match t.impl with
    | Naive -> naive_put t v
    | Plan | Blit -> raw_put t v

  let raw_u16 t v =
    ensure t 2;
    let p = t.pos in
    Bytes.unsafe_set t.buf p (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set t.buf (p + 1) (Char.unsafe_chr (v land 0xFF));
    t.pos <- p + 2

  (* every count and index on the wire is a u16: one that does not fit
     must fail here, not reach the receiver masked to 16 bits *)
  let u16 t v =
    if v < 0 || v > 0xFFFF then
      invalid_arg (Printf.sprintf "Wire.Writer.u16: %d out of range" v);
    charge t ~bytes:2;
    match t.impl with
    | Naive ->
      naive_put t (v lsr 8);
      naive_put t v
    | Plan | Blit -> raw_u16 t v

  let u32 t v =
    charge t ~bytes:4;
    let b n = Int32.to_int (Int32.shift_right_logical v n) land 0xFF in
    match t.impl with
    | Naive ->
      naive_put t (b 24);
      naive_put t (b 16);
      naive_put t (b 8);
      naive_put t (b 0)
    | Plan | Blit ->
      ensure t 4;
      let p = t.pos in
      Bytes.unsafe_set t.buf p (Char.unsafe_chr (b 24));
      Bytes.unsafe_set t.buf (p + 1) (Char.unsafe_chr (b 16));
      Bytes.unsafe_set t.buf (p + 2) (Char.unsafe_chr (b 8));
      Bytes.unsafe_set t.buf (p + 3) (Char.unsafe_chr (b 0));
      t.pos <- p + 4

  let i32 = u32

  let f64 t v =
    charge t ~bytes:8;
    let bits = Int64.bits_of_float v in
    let b n = Int64.to_int (Int64.shift_right_logical bits (8 * n)) land 0xFF in
    match t.impl with
    | Naive ->
      for n = 7 downto 0 do
        naive_put t (b n)
      done
    | Plan | Blit ->
      ensure t 8;
      let p = t.pos in
      for n = 7 downto 0 do
        Bytes.unsafe_set t.buf (p + 7 - n) (Char.unsafe_chr (b n))
      done;
      t.pos <- p + 8

  let bool t v = u8 t (if v then 1 else 0)

  let str t s =
    let len = String.length s in
    if len > 0xFFFF then invalid_arg "Wire.Writer.str: string too long";
    charge t ~bytes:(2 + len);
    match t.impl with
    | Naive ->
      naive_put t (len lsr 8);
      naive_put t len;
      for i = 0 to len - 1 do
        naive_put t (Char.code (String.unsafe_get s i))
      done
    | Plan | Blit ->
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

  (* naive-tier host path: one non-inlined call per byte (see Writer) *)
  let[@inline never] naive_get t =
    let p = take t 1 in
    Char.code (Bytes.unsafe_get t.data p)

  let u8 t =
    charge t ~bytes:1;
    match t.impl with
    | Naive -> naive_get t
    | Plan | Blit ->
      let p = take t 1 in
      Char.code (Bytes.unsafe_get t.data p)

  let raw_u16 t =
    let p = take t 2 in
    (Char.code (Bytes.unsafe_get t.data p) lsl 8) lor Char.code (Bytes.unsafe_get t.data (p + 1))

  let u16 t =
    charge t ~bytes:2;
    match t.impl with
    | Naive ->
      let hi = naive_get t in
      let lo = naive_get t in
      (hi lsl 8) lor lo
    | Plan | Blit -> raw_u16 t

  let read32_at data p =
    let b i = Int32.of_int (Char.code (Bytes.unsafe_get data (p + i))) in
    let ( ||| ) = Int32.logor in
    Int32.shift_left (b 0) 24 ||| Int32.shift_left (b 1) 16 ||| Int32.shift_left (b 2) 8
    ||| b 3

  let u32 t =
    charge t ~bytes:4;
    match t.impl with
    | Naive ->
      let acc = ref 0l in
      for _ = 0 to 3 do
        acc := Int32.logor (Int32.shift_left !acc 8) (Int32.of_int (naive_get t))
      done;
      !acc
    | Plan | Blit ->
      let p = take t 4 in
      read32_at t.data p

  let i32 = u32

  let read64_at data p =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code (Bytes.unsafe_get data (p + i))))
    done;
    !bits

  let f64 t =
    charge t ~bytes:8;
    match t.impl with
    | Naive ->
      let bits = ref 0L in
      for _ = 0 to 7 do
        bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (naive_get t))
      done;
      Int64.float_of_bits !bits
    | Plan | Blit ->
      let p = take t 8 in
      Int64.float_of_bits (read64_at t.data p)

  let bool t = u8 t <> 0

  let str t =
    match t.impl with
    | Naive ->
      (* length bytes come through the per-byte path too *)
      let hi = naive_get t in
      let lo = naive_get t in
      let len = (hi lsl 8) lor lo in
      charge t ~bytes:(2 + len);
      let b = Bytes.create len in
      for i = 0 to len - 1 do
        Bytes.unsafe_set b i (Char.unsafe_chr (naive_get t))
      done;
      Bytes.unsafe_to_string b
    | Plan | Blit ->
      let len = raw_u16 t in
      charge t ~bytes:(2 + len);
      let p = take t len in
      Bytes.sub_string t.data p len

  let at_end t = t.pos >= t.limit
end
