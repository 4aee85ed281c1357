type t = {
  mutable data : Bytes.t;
  endian : Endian.t;
  (* write barrier for the incremental collector: while a mark cycle is
     active every 32-bit store reports the overwritten and the stored
     word (both as unsigned bits).  [None] — the normal state — costs a
     single branch per store. *)
  mutable barrier : (int -> int -> unit) option;
}

exception Fault of int

let low_bound = 0x100

let create ~endian ~size =
  let size = max size (low_bound + 4) in
  { data = Bytes.make size '\000'; endian; barrier = None }

let endian t = t.endian
let size t = Bytes.length t.data

let set_store_barrier t f = t.barrier <- f

let grow_to t wanted =
  if wanted > Bytes.length t.data then begin
    let nsize = max wanted (2 * Bytes.length t.data) in
    let ndata = Bytes.make nsize '\000' in
    Bytes.blit t.data 0 ndata 0 (Bytes.length t.data);
    t.data <- ndata
  end

let check t addr len =
  if addr < low_bound || addr + len > Bytes.length t.data then raise (Fault addr)

let load8 t addr =
  check t addr 1;
  Char.code (Bytes.unsafe_get t.data addr)

(* unchecked int-domain access for callers that have already done
   [check t addr 4] themselves (the dispatch engine inlines the bounds
   test so a fault can be attributed to the exact micro-op) *)
let unsafe_load32_bits t addr =
  let d = t.data in
  let b0 = Char.code (Bytes.unsafe_get d addr)
  and b1 = Char.code (Bytes.unsafe_get d (addr + 1))
  and b2 = Char.code (Bytes.unsafe_get d (addr + 2))
  and b3 = Char.code (Bytes.unsafe_get d (addr + 3)) in
  match t.endian with
  | Endian.Little -> b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  | Endian.Big -> b3 lor (b2 lsl 8) lor (b1 lsl 16) lor (b0 lsl 24)

let unsafe_store32_bits t addr v =
  (match t.barrier with
   | None -> ()
   | Some f -> f (unsafe_load32_bits t addr) (v land 0xFFFF_FFFF));
  let d = t.data in
  match t.endian with
  | Endian.Little ->
    Bytes.unsafe_set d addr (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set d (addr + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set d (addr + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set d (addr + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))
  | Endian.Big ->
    Bytes.unsafe_set d addr (Char.unsafe_chr ((v lsr 24) land 0xFF));
    Bytes.unsafe_set d (addr + 1) (Char.unsafe_chr ((v lsr 16) land 0xFF));
    Bytes.unsafe_set d (addr + 2) (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set d (addr + 3) (Char.unsafe_chr (v land 0xFF))

let store32 t addr v =
  check t addr 4;
  unsafe_store32_bits t addr (Int32.to_int v land 0xFFFF_FFFF)

(* checked int-domain 32-bit access: identical bounds check and byte
   order to [load32]/[store32], but the word travels as bits in an
   untagged [int], so a frame slot access allocates nothing *)
let load32_bits t addr =
  check t addr 4;
  unsafe_load32_bits t addr

(* the one boxing of a load: [Int32.of_int] keeps the low 32 bits *)
let load32 t addr = Int32.of_int (load32_bits t addr)

let store32_bits t addr v =
  check t addr 4;
  unsafe_store32_bits t addr v

let blit_string t addr s =
  check t addr (String.length s);
  Bytes.blit_string s 0 t.data addr (String.length s)

let read_string t addr len =
  check t addr len;
  Bytes.sub_string t.data addr len

let rec bytes_equal d a b n =
  n <= 0 || (Bytes.unsafe_get d a = Bytes.unsafe_get d b && bytes_equal d (a + 1) (b + 1) (n - 1))

let equal_sub t a la b lb =
  check t a la;
  check t b lb;
  la = lb && bytes_equal t.data a b la

let blit_within t ~src ~dst ~len =
  check t src len;
  check t dst len;
  Bytes.blit t.data src t.data dst len

let zero_fill t addr len =
  check t addr len;
  Bytes.fill t.data addr len '\000'
