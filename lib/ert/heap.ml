type t = {
  mem : Isa.Memory.t;
  heap_start : int;
  mutable brk : int;
  mutable free_lists : int list array;
      (* by size class (bytes / 4): freed addresses, last freed first *)
  mutable live_bytes : int;
}

let create ~mem ~start =
  { mem; heap_start = start; brk = start; free_lists = [||]; live_bytes = 0 }

let align n = (n + 3) land lnot 3

let alloc t n =
  let n = align (max n 4) in
  t.live_bytes <- t.live_bytes + n;
  let c = n lsr 2 in
  match if c < Array.length t.free_lists then t.free_lists.(c) else [] with
  | addr :: rest ->
    t.free_lists.(c) <- rest;
    Isa.Memory.zero_fill t.mem addr n;
    addr
  | [] ->
    let addr = t.brk in
    if addr + n >= Isa.Text.text_base then raise Out_of_memory;
    Isa.Memory.grow_to t.mem (addr + n);
    t.brk <- addr + n;
    addr

let free t ~addr ~size =
  let size = align (max size 4) in
  t.live_bytes <- t.live_bytes - size;
  let c = size lsr 2 in
  let n = Array.length t.free_lists in
  if c >= n then begin
    let lists = Array.make (max (c + 1) (2 * n)) [] in
    Array.blit t.free_lists 0 lists 0 n;
    t.free_lists <- lists
  end;
  t.free_lists.(c) <- addr :: t.free_lists.(c)

let brk t = t.brk
let start t = t.heap_start
let live_bytes t = t.live_bytes
