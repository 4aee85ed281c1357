type t = {
  mem : Isa.Memory.t;
  heap_start : int;
  mutable brk : int;
  free_lists : (int, int list ref) Hashtbl.t;  (* size -> addresses *)
  mutable live_bytes : int;
}

let create ~mem ~start =
  { mem; heap_start = start; brk = start; free_lists = Hashtbl.create 16;
    live_bytes = 0 }

let align n = (n + 3) land lnot 3

let alloc t n =
  let n = align (max n 4) in
  t.live_bytes <- t.live_bytes + n;
  match Hashtbl.find_opt t.free_lists n with
  | Some ({ contents = addr :: rest } as l) ->
    l := rest;
    Isa.Memory.zero_fill t.mem addr n;
    addr
  | Some { contents = [] } | None ->
    let addr = t.brk in
    if addr + n >= Isa.Text.text_base then raise Out_of_memory;
    Isa.Memory.grow_to t.mem (addr + n);
    t.brk <- addr + n;
    addr

let free t ~addr ~size =
  let size = align (max size 4) in
  t.live_bytes <- t.live_bytes - size;
  match Hashtbl.find_opt t.free_lists size with
  | Some l -> l := addr :: !l
  | None -> Hashtbl.replace t.free_lists size (ref [ addr ])

let brk t = t.brk
let start t = t.heap_start
let live_bytes t = t.live_bytes
