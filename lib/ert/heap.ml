type t = {
  mem : Isa.Memory.t;
  heap_start : int;
  mutable brk : int;
  mutable free : int array array;
      (* by size class (bytes / 4): a stack of freed addresses, the last
         freed on top; freeing allocates only when a stack grows *)
  mutable nfree : int array;  (* each stack's depth *)
  mutable live_bytes : int;
}

let create ~mem ~start =
  { mem; heap_start = start; brk = start; free = [||]; nfree = [||]; live_bytes = 0 }

let align n = (n + 3) land lnot 3

let alloc t n =
  let n = align (max n 4) in
  t.live_bytes <- t.live_bytes + n;
  let c = n lsr 2 in
  if c < Array.length t.nfree && t.nfree.(c) > 0 then begin
    let d = t.nfree.(c) - 1 in
    t.nfree.(c) <- d;
    let addr = t.free.(c).(d) in
    Isa.Memory.zero_fill t.mem addr n;
    addr
  end
  else begin
    let addr = t.brk in
    if addr + n >= Isa.Text.text_base then raise Out_of_memory;
    Isa.Memory.grow_to t.mem (addr + n);
    t.brk <- addr + n;
    addr
  end

let free t ~addr ~size =
  let size = align (max size 4) in
  t.live_bytes <- t.live_bytes - size;
  let c = size lsr 2 in
  let n = Array.length t.nfree in
  if c >= n then begin
    let m = max (c + 1) (2 * n) in
    let free = Array.make m [||] and nfree = Array.make m 0 in
    Array.blit t.free 0 free 0 n;
    Array.blit t.nfree 0 nfree 0 n;
    t.free <- free;
    t.nfree <- nfree
  end;
  let d = t.nfree.(c) in
  if d = Array.length t.free.(c) then begin
    let deeper = Array.make (max 8 (2 * d)) 0 in
    Array.blit t.free.(c) 0 deeper 0 d;
    t.free.(c) <- deeper
  end;
  t.free.(c).(d) <- addr;
  t.nfree.(c) <- d + 1

let brk t = t.brk
let start t = t.heap_start
let live_bytes t = t.live_bytes
