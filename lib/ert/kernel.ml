module A = Isa.Arch
module M = Isa.Machine
module Mem = Isa.Memory
module L = Emc.Layout

exception Runtime_error of string

type block_kind =
  | Bobject
  | Bproxy
  | Bstring
  | Bvector

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

(* the data heap starts above the nil red zone; every landing and remote
   invocation runs on a [stack_bytes] region allocated from it.  A node's
   memory starts just large enough for the heap base, one stack and a
   page, and grows by doubling. *)
let heap_start = 0x1000
let stack_bytes = 32 * 1024
let initial_mem_bytes = heap_start + stack_bytes + 0x1000

type loaded_class = {
  lc_class : Emc.Compile.compiled_class;
  lc_code : Isa.Code.t;
  lc_stops : Emc.Busstop.table;
  lc_image : Isa.Text.image;
  lc_desc_addr : int;
  lc_process : int;  (* method index of [$process], or -1 *)
  lc_at_stop : (loaded_class * Emc.Busstop.entry) option array;
      (* [stop_at_pc]'s answer for each stop id, built at load *)
}

type outcall =
  | Oc_invoke of {
      seg : Thread.segment;
      target_oid : Oid.t;
      hint_node : int;
      callee_class : int;
      callee_method : int;
      args : Value.t list;
      stop_id : int;
    }
  | Oc_move of {
      seg : Thread.segment;
      obj_addr : int;
      dest_node : int;
    }
  | Oc_return of {
      link : Thread.link;
      value : Value.t;
      thread : Thread.tid;
    }
  | Oc_start_process of {
      target_oid : Oid.t;
      hint_node : int;
    }  (** the object moved away during [initially]; start it over there *)
  | Oc_evict of {
      seg : Thread.segment;
      dest_node : int;
      armed_us : float;
    }
      (** a forced-eviction trap fired: the segment just parked at a bus
          stop and must be shipped to [dest_node] by the mobility layer.
          [armed_us] is the virtual time the trap was armed — the window
          from arming to firing is execution the asynchronous-migration
          pipeline may overlap with *)

type t = {
  knode_id : int;
  karch : A.t;
  k_us_per_cycle : float;  (* cycle_time_ns / 1000, hoisted out of charge_cycles *)
  kmem : Mem.t;
  ktext : Isa.Text.t;
  kheap : Heap.t;
  mutable kprogram : Emc.Compile.program option;
  mutable loaded : loaded_class option array;  (* by class index *)
  mutable literals : int array;
      (* string-literal blocks of the loaded classes, in load order *)
  code_owner : (loaded_class * int) option Oid_table.t;
      (* code OID of every loaded text image -> its class, and for a
         bridge fragment the id of the elided stop the fragment stands
         for (-1 for the class's own image) *)
  objects : int Oid_table.t;  (* resident: OID -> descriptor address *)
  proxies : int Oid_table.t;
  segs : (int, Thread.segment) Hashtbl.t;
  mutable seg_order : Thread.segment array;
  mutable nsegs : int;
      (* the first [nsegs] slots: [segs]'s segments in ascending id, the
         collector's scan order ([segs] stays a Hashtbl because its fold
         order reaches virtual numbers) *)
  seg_forwards : (int, int) Hashtbl.t;  (* migrated segment -> node *)
  stack_users : (int, int) Hashtbl.t;
      (* held stack region (top address) -> registered segments on it *)
  mutable stack_pool : int list;  (* free stack regions, last released first *)
  mutable ready : Thread.segment array;
  mutable ready_head : int;
  mutable ready_len : int;
      (* the run queue: a ring of [ready_len] segments from [ready_head],
         so an enqueue allocates nothing *)
  root_results : (Thread.tid, Value.t option) Hashtbl.t;
  (* the heap blocks the GC may sweep, in ascending address order over
     [nslots] slots of three parallel arrays; a freed block keeps its
     slot, with size 0, until its address is allocated again *)
  mutable blk_addr : int array;
  mutable blk_size : int array;
  mutable blk_kind : block_kind array;
  mutable nslots : int;
  mutable nblocks : int;  (* slots holding a block *)
  out : Buffer.t;
  kclock : Sim.Clock.t;  (* node-local virtual time *)
  mutable oid_serial : int;
  mutable tid_serial : int;
  mutable seg_serial : int;
  mutable insns : int;
  mutable syscalls : int;
  mutable on_code_load : (unit -> unit) option;
  mutable on_root_result : (thread:Thread.tid -> Value.t option -> unit) option;
  mutable on_ref_graft : (int -> unit) option;
      (* incremental-GC graft hook: called with every block address that
         reaches machine registers or fresh frames outside the 32-bit
         store path ([ensure_ref] results, spawn targets) so a mark
         cycle in progress can grey it.  [None] when no cycle is
         active. *)
  mutable quantum : int option;
      (* preemptive (Trellis/Owl-style) scheduling: slices are bounded by
         an instruction quantum and threads may be left between bus stops *)
  evict_arms : (int, int * float) Hashtbl.t;
      (* armed eviction traps: segment id -> (destination node, virtual
         time the trap was armed).  An armed
         segment runs with poll_requested pinned true, so it is captured
         at its next bus stop with no cooperative polling by the code. *)
  mutable evictions : int;  (* eviction traps fired *)
  mutable peak_ready : int;  (* high-water mark of the run queue *)
  mutable kdispatch : Isa.Dispatch.cache;
      (* per-node translated-code cache for the dispatch engine;
         the cluster points it at the code repository's per-node cache *)
  mutable kthreaded : bool;
      (* execute through Isa.Dispatch (default) or the baseline
         fetch/decode Machine.run (for differential tests and bench) *)
  mutable kopt : Emc.Opt.level;
      (* preferred code instance: the kernel loads the program's
         (arch, kopt) instance when it was compiled, falling back to the
         program's primary level *)
  mutable kbridge : Bridge.t;
      (* compiled bridge fragments for landing threads parked at bus
         stops this node's instance elided; the cluster points it at the
         code repository's per-node cache so the counters survive a node
         restart (the fragments themselves are voided — they address
         kernel text) *)
}

let create ?clock ~node_id ~arch () =
  let mem = Mem.create ~endian:arch.A.endian ~size:initial_mem_bytes in
  let kclock =
    match clock with
    | Some c -> c
    | None -> Sim.Clock.create ()
  in
  {
    knode_id = node_id;
    karch = arch;
    k_us_per_cycle = A.cycle_time_ns arch /. 1000.0;
    kmem = mem;
    ktext = Isa.Text.create ();
    kheap = Heap.create ~mem ~start:heap_start;
    kprogram = None;
    loaded = [||];
    literals = [||];
    code_owner = Oid_table.create ~dummy:None ();
    objects = Oid_table.create ~dummy:0 ();
    proxies = Oid_table.create ~dummy:0 ();
    segs = Hashtbl.create 16;
    seg_order = [||];
    nsegs = 0;
    seg_forwards = Hashtbl.create 16;
    stack_users = Hashtbl.create 16;
    stack_pool = [];
    ready = [||];
    ready_head = 0;
    ready_len = 0;
    root_results = Hashtbl.create 8;
    blk_addr = Array.make 16 0;
    blk_size = Array.make 16 0;
    blk_kind = Array.make 16 Bobject;
    nslots = 0;
    nblocks = 0;
    out = Buffer.create 256;
    kclock;
    oid_serial = 0;
    tid_serial = 0;
    seg_serial = 0;
    insns = 0;
    syscalls = 0;
    on_code_load = None;
    on_root_result = None;
    on_ref_graft = None;
    quantum = None;
    evict_arms = Hashtbl.create 4;
    evictions = 0;
    peak_ready = 0;
    kdispatch = Isa.Dispatch.create_cache ();
    kthreaded = true;
    kopt = Emc.Opt.O0;
    kbridge = Bridge.create ();
  }

let node_id t = t.knode_id
let arch t = t.karch
let mem t = t.kmem
let heap t = t.kheap
let clock t = t.kclock
let time_us t = t.kclock.Sim.Clock.now
let set_time_us t v = Sim.Clock.advance_to t.kclock v
let charge_insns t n =
  let clk = t.kclock in
  clk.Sim.Clock.now <- clk.Sim.Clock.now +. (float_of_int n /. t.karch.A.mips)
let charge_us t us = Sim.Clock.add t.kclock us

(* roll virtual time back by [us]: async migration credits the portion of
   capture/translate/marshal that was overlapped with execution (the work
   was charged synchronously when the spans ran; the credit removes the
   double count, never past zero) *)
let credit_us t us =
  let clk = t.kclock in
  clk.Sim.Clock.now <- Float.max 0.0 (clk.Sim.Clock.now -. us)

let charge_cycles t c =
  let clk = t.kclock in
  clk.Sim.Clock.now <- clk.Sim.Clock.now +. (float_of_int c *. t.k_us_per_cycle)

let insns_executed t = t.insns
let syscalls_handled t = t.syscalls
let output t = Buffer.contents t.out

let print_string_out t s = Buffer.add_string t.out s

(* Program and code management ------------------------------------------- *)

let load_program t prog =
  match t.kprogram with
  | Some p when p != prog -> error "node %d: a program is already loaded" t.knode_id
  | Some _ -> ()
  | None ->
    t.kprogram <- Some prog;
    t.loaded <- Array.make (Array.length prog.Emc.Compile.p_classes) None

let program t =
  match t.kprogram with
  | Some p -> p
  | None -> error "node %d: no program loaded" t.knode_id

(* Sweepable blocks --------------------------------------------------------- *)

(* the first slot whose address is at least [addr] *)
let block_slot t addr =
  let lo = ref 0 and hi = ref t.nslots in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.blk_addr.(mid) < addr then lo := mid + 1 else hi := mid
  done;
  !lo

(* Bump allocation appends.  Reuse from a size class finds the freed
   block's slot and revives it with the new size; the one insertion is
   an address whose first use was a kernel-owned block (a monitor queue
   node), which has no slot. *)
let add_block t addr size kind =
  let n = t.nslots in
  let i = if n = 0 || t.blk_addr.(n - 1) < addr then n else block_slot t addr in
  if i = n || t.blk_addr.(i) <> addr then begin
    if n = Array.length t.blk_addr then begin
      let grow a fill =
        let b = Array.make (2 * n) fill in
        Array.blit a 0 b 0 n;
        b
      in
      t.blk_addr <- grow t.blk_addr 0;
      t.blk_size <- grow t.blk_size 0;
      t.blk_kind <- grow t.blk_kind Bobject
    end;
    Array.blit t.blk_addr i t.blk_addr (i + 1) (n - i);
    Array.blit t.blk_size i t.blk_size (i + 1) (n - i);
    Array.blit t.blk_kind i t.blk_kind (i + 1) (n - i);
    t.blk_addr.(i) <- addr;
    t.nslots <- n + 1
  end;
  t.blk_size.(i) <- size;
  t.blk_kind.(i) <- kind;
  t.nblocks <- t.nblocks + 1

let make_string t s =
  let size = L.str_bytes + String.length s in
  let addr = Heap.alloc t.kheap size in
  add_block t addr size Bstring;
  Mem.store32_bits t.kmem (addr + L.str_flags) L.flag_string;
  Mem.store32_bits t.kmem (addr + L.str_len) (String.length s);
  Mem.blit_string t.kmem (addr + L.str_bytes) s;
  addr

let string_block_len t addr = M.sx (Mem.load32_bits t.kmem (addr + L.str_len))

let read_string_block t addr =
  Mem.read_string t.kmem (addr + L.str_bytes) (string_block_len t addr)

(* [String.equal] on two string blocks, read in place *)
let string_blocks_equal t a b =
  let la = string_block_len t a in
  let lb = string_block_len t b in
  Mem.equal_sub t.kmem (a + L.str_bytes) la (b + L.str_bytes) lb

let make_vector t ~kind ~len =
  let size = L.vec_elems + (4 * len) in
  let addr = Heap.alloc t.kheap size in
  add_block t addr size Bvector;
  Mem.store32_bits t.kmem (addr + L.vec_flags) L.flag_vector;
  Mem.store32_bits t.kmem (addr + L.vec_len) len;
  Mem.store32_bits t.kmem (addr + L.vec_kind) kind;
  addr

let is_vector_block t addr = Mem.load32_bits t.kmem (addr + L.vec_flags) land L.flag_vector <> 0

(* the representative element type of a kind code, for machine-independent
   fresh-vector completion values; [kind_of_typ] is its left inverse *)
let typ_of_kind kind =
  if kind = L.kind_int then Emc.Ast.Tint
  else if kind = L.kind_real then Emc.Ast.Treal
  else if kind = L.kind_bool then Emc.Ast.Tbool
  else if kind = L.kind_string then Emc.Ast.Tstring
  else if kind = L.kind_vec then Emc.Ast.Tvec Emc.Ast.Tnil
  else Emc.Ast.Tnil

let default_value_of_typ = function
  | Emc.Ast.Tint -> Value.Vint 0l
  | Emc.Ast.Treal -> Value.Vreal 0.0
  | Emc.Ast.Tbool -> Value.Vbool false
  | Emc.Ast.Tstring | Emc.Ast.Tobj _ | Emc.Ast.Tvec _ | Emc.Ast.Tnil -> Value.Vnil

(* Code loading: allocate the descriptor table (class index, absolute
   method entries, string-literal addresses) in data memory so generated
   code can dispatch and fetch literals with plain loads. *)
let loaded_class t class_index =
  match if class_index < Array.length t.loaded then t.loaded.(class_index) else None with
  | Some lc -> lc
  | None ->
    let prog = program t in
    let cc = Emc.Compile.class_by_index prog class_index in
    let art =
      (* exact (arch, level) instance when the program carries it;
         otherwise the program's primary instance (single-level programs
         behave exactly as before the instance refactor) *)
      match Emc.Compile.artifact_at cc ~arch_id:t.karch.A.id ~level:t.kopt with
      | Some art -> art
      | None -> Emc.Compile.artifact cc ~arch_id:t.karch.A.id
    in
    let code = art.Emc.Compile.aa_code in
    let image = Isa.Text.load t.ktext code in
    let nmethods = Array.length code.Isa.Code.methods in
    let strings = cc.Emc.Compile.cc_template.Emc.Template.ct_strings in
    let nstrings = Array.length strings in
    let desc = Heap.alloc t.kheap (L.desc_size ~nmethods ~nstrings) in
    Mem.store32_bits t.kmem (desc + L.desc_class) class_index;
    Array.iter
      (fun (m : Isa.Code.method_info) ->
        Mem.store32_bits t.kmem
          (desc + L.desc_method m.Isa.Code.method_index)
          (image.Isa.Text.base + m.Isa.Code.entry_offset))
      code.Isa.Code.methods;
    let string_addrs =
      Array.mapi
        (fun i s ->
          let addr = make_string t s in
          Mem.store32_bits t.kmem (desc + L.desc_string ~nmethods i) addr;
          addr)
        strings
    in
    let stops = art.Emc.Compile.aa_stops in
    let lc =
      {
        lc_class = cc;
        lc_code = code;
        lc_stops = stops;
        lc_image = image;
        lc_desc_addr = desc;
        lc_process =
          (match Isa.Code.method_by_name code "$process" with
          | Some m -> m.Isa.Code.method_index
          | None -> -1);
        lc_at_stop = Array.make (Emc.Busstop.count stops) None;
      }
    in
    Array.iteri
      (fun id entry -> lc.lc_at_stop.(id) <- Some (lc, entry))
      stops.Emc.Busstop.bt_entries;
    t.loaded.(class_index) <- Some lc;
    t.literals <- Array.append t.literals string_addrs;
    Oid_table.replace t.code_owner code.Isa.Code.code_oid (Some (lc, -1));
    (match t.on_code_load with
    | Some f -> f ()
    | None -> ());
    lc

let set_on_code_load t f = t.on_code_load <- Some f
let set_on_root_result t f = t.on_root_result <- Some f
let set_quantum t q = t.quantum <- q
let quantum t = t.quantum
let set_dispatch_cache t c = t.kdispatch <- c
let dispatch_stats t = Isa.Dispatch.stats t.kdispatch
let set_threaded t b = t.kthreaded <- b

let set_opt_level t l =
  if Array.exists Option.is_some t.loaded && not (Emc.Opt.equal l t.kopt) then
    error "node %d: cannot change optimization level after code is loaded" t.knode_id;
  t.kopt <- l

let opt_level t = t.kopt
let bridge t = t.kbridge
let set_bridge_cache t c = t.kbridge <- c

(* Objects ----------------------------------------------------------------- *)

let oid_at t addr = Mem.load32 t.kmem (addr + L.obj_oid)

let is_resident t addr = Mem.load32_bits t.kmem (addr + L.obj_flags) land L.flag_resident <> 0

let proxy_hint t addr =
  if is_resident t addr then t.knode_id
  else Int32.to_int (Mem.load32 t.kmem (addr + L.obj_desc))

let alloc_descriptor t ~oid ~nconds ~nfields =
  let size = L.object_size ~nconds ~nfields in
  let addr = Heap.alloc t.kheap size in
  add_block t addr size Bobject;
  Mem.store32 t.kmem (addr + L.obj_oid) oid;
  (* empty circular monitor entry queue and condition queues *)
  for c = -1 to nconds - 1 do
    let sent = if c < 0 then addr + L.obj_qflink else addr + L.cond_sentinel ~nfields c in
    Mem.store32_bits t.kmem sent sent;
    Mem.store32_bits t.kmem (sent + 4) sent
  done;
  addr

let install_object t ~oid ~class_index =
  let lc = loaded_class t class_index in
  let tmpl = lc.lc_class.Emc.Compile.cc_template in
  let nfields = Array.length tmpl.Emc.Template.ct_fields in
  let nconds = Array.length tmpl.Emc.Template.ct_conditions in
  let addr =
    (* proxies are header-sized; allocate a full descriptor and leave any
       existing proxy forwarding to ourselves: local lookups go through
       the object table, and the stale proxy is collected by the GC *)
    alloc_descriptor t ~oid ~nconds ~nfields
  in
  Mem.store32_bits t.kmem (addr + L.obj_flags) (L.flag_resident lor L.flag_code_loaded);
  Mem.store32_bits t.kmem (addr + L.obj_desc) lc.lc_desc_addr;
  Oid_table.replace t.objects oid addr;
  Oid_table.remove t.proxies oid;
  addr

let serials t = (t.oid_serial, t.tid_serial, t.seg_serial)

let inherit_serials t (oid_s, tid_s, seg_s) =
  t.oid_serial <- max t.oid_serial oid_s;
  t.tid_serial <- max t.tid_serial tid_s;
  t.seg_serial <- max t.seg_serial seg_s

(* a real this node's float format cannot hold is the program's fault,
   reported as the same overflow computed here would trap *)
let encode_real t x =
  try Isa.Float_format.encode t.karch.A.float_format x
  with Isa.Float_format.Reserved_operand m ->
    error "node %d: %a" t.knode_id M.pp_trap (M.Float_reserved m)

let create_object t ~class_index =
  t.oid_serial <- t.oid_serial + 1;
  let oid = Oid.fresh_data ~node_id:t.knode_id ~serial:t.oid_serial in
  let lc = loaded_class t class_index in
  let tmpl = lc.lc_class.Emc.Compile.cc_template in
  let addr = install_object t ~oid ~class_index in
  (* literal field initialisers *)
  let inits = tmpl.Emc.Template.ct_field_inits in
  for i = 0 to Array.length inits - 1 do
    let raw =
      match (inits.(i) : Emc.Ir.field_init) with
      | Emc.Ir.Fint v -> Int32.to_int v
      | Emc.Ir.Fbool b -> Bool.to_int b
      | Emc.Ir.Freal x -> Int32.to_int (encode_real t x)
      | Emc.Ir.Fstr s -> make_string t s
      | Emc.Ir.Fnil -> 0
    in
    Mem.store32_bits t.kmem (addr + L.field_offset i) raw
  done;
  addr

let find_object t oid = Oid_table.find_opt t.objects oid
let proxy_of t oid = Oid_table.find_opt t.proxies oid

let ref_addr t key =
  let addr = Oid_table.find_key t.objects key in
  if addr <> 0 then addr else Oid_table.find_key t.proxies key

let make_proxy t oid ~hint =
  let addr = Heap.alloc t.kheap L.obj_header_size in
  add_block t addr L.obj_header_size Bproxy;
  Mem.store32 t.kmem (addr + L.obj_oid) oid;
  Mem.store32 t.kmem (addr + L.obj_flags) 0l;
  Mem.store32 t.kmem (addr + L.obj_desc) (Int32.of_int hint);
  Oid_table.replace t.proxies oid addr;
  addr

let set_on_ref_graft t f = t.on_ref_graft <- f

let graft_addr t addr =
  match t.on_ref_graft with
  | None -> ()
  | Some f -> f addr

let ensure_ref_key t key =
  let addr =
    match ref_addr t key with
    | 0 ->
      let oid = Int32.of_int key in
      make_proxy t oid ~hint:(Option.value (Oid.creator_node oid) ~default:0)
    | addr -> addr
  in
  graft_addr t addr;
  addr

let ensure_ref t oid = ensure_ref_key t (Oid.intern oid)

let set_proxy_hint t ~addr ~node =
  if is_resident t addr then ()
  else Mem.store32 t.kmem (addr + L.obj_desc) (Int32.of_int node)

let class_of_object t addr =
  if not (is_resident t addr) then error "class_of_object: %s is not resident" (Oid.to_string (oid_at t addr));
  Mem.load32_bits t.kmem (Mem.load32_bits t.kmem (addr + L.obj_desc) + L.desc_class)

let evict_object t ~addr ~forward_to =
  let oid = oid_at t addr in
  Mem.store32 t.kmem (addr + L.obj_flags) 0l;
  Mem.store32 t.kmem (addr + L.obj_desc) (Int32.of_int forward_to);
  Oid_table.remove t.objects oid;
  Oid_table.replace t.proxies oid addr

let objects t = Oid_table.fold (fun oid addr acc -> (oid, addr) :: acc) t.objects []
let iter_objects t f = Oid_table.iter f t.objects

let fold_blocks t f acc =
  let acc = ref acc in
  for i = 0 to t.nslots - 1 do
    let size = t.blk_size.(i) in
    if size > 0 then acc := f ~addr:t.blk_addr.(i) ~size !acc
  done;
  !acc

let block_count t = t.nblocks

let free_block t addr =
  let i = block_slot t addr in
  if i < t.nslots && t.blk_addr.(i) = addr && t.blk_size.(i) > 0 then begin
    let size = t.blk_size.(i) in
    t.blk_size.(i) <- 0;
    t.nblocks <- t.nblocks - 1;
    (match t.blk_kind.(i) with
    | Bobject | Bproxy ->
      (* [Oid.intern (oid_at t addr)], read without the int32 *)
      let key = M.sx (Mem.load32_bits t.kmem (addr + L.obj_oid)) in
      if Oid_table.find_key t.objects key = addr then Oid_table.remove_key t.objects key;
      if Oid_table.find_key t.proxies key = addr then Oid_table.remove_key t.proxies key
    | Bstring | Bvector -> ());
    Heap.free t.kheap ~addr ~size
  end

let string_literal_addrs t = t.literals

let attached_refs t ~addr =
  let class_index = class_of_object t addr in
  let tmpl = (loaded_class t class_index).lc_class.Emc.Compile.cc_template in
  let refs = ref [] in
  Array.iteri
    (fun i (_, ty) ->
      (* only object references participate in the attached closure;
         strings and vectors are value aggregates *)
      match ty with
      | Emc.Ast.Tobj _ when tmpl.Emc.Template.ct_attached.(i) ->
        let v = Mem.load32_bits t.kmem (addr + L.field_offset i) in
        if v <> 0 then refs := v :: !refs
      | _ -> ())
    tmpl.Emc.Template.ct_fields;
  List.rev !refs

(* Value conversion --------------------------------------------------------- *)

let rec value_of_raw t ty raw =
  match (ty : Emc.Ast.typ) with
  | Emc.Ast.Tint -> Value.Vint raw
  | Emc.Ast.Tbool -> Value.Vbool (raw <> 0l)
  | Emc.Ast.Treal -> Value.Vreal (Isa.Float_format.decode t.karch.A.float_format raw)
  | Emc.Ast.Tstring ->
    if Int32.equal raw 0l then Value.Vnil else Value.Vstr (read_string_block t (Int32.to_int raw))
  | Emc.Ast.Tvec elem ->
    if Int32.equal raw 0l then Value.Vnil
    else begin
      let addr = Int32.to_int raw in
      let len = Int32.to_int (Mem.load32 t.kmem (addr + L.vec_len)) in
      Value.Vvec
        ( elem,
          Array.init len (fun i ->
              value_of_raw t elem (Mem.load32 t.kmem (addr + L.vec_elems + (4 * i)))) )
    end
  | Emc.Ast.Tobj _ | Emc.Ast.Tnil ->
    if Int32.equal raw 0l then Value.Vnil else Value.Vref (oid_at t (Int32.to_int raw))

let rec raw_of_value t v =
  match (v : Value.t) with
  | Value.Vint x -> x
  | Value.Vbool b -> if b then 1l else 0l
  | Value.Vreal x -> encode_real t x
  | Value.Vstr s -> Int32.of_int (make_string t s)
  | Value.Vref oid -> Int32.of_int (ensure_ref t oid)
  | Value.Vvec (elem, xs) ->
    let addr = make_vector t ~kind:(L.kind_of_typ elem) ~len:(Array.length xs) in
    Array.iteri
      (fun i x -> Mem.store32 t.kmem (addr + L.vec_elems + (4 * i)) (raw_of_value t x))
      xs;
    Int32.of_int addr
  | Value.Vnil -> 0l

(* Bus stops ------------------------------------------------------------------ *)

let image_owner t (img : Isa.Text.image) =
  if img == Isa.Text.none then None
  else Oid_table.find t.code_owner img.Isa.Text.code.Isa.Code.code_oid

(* every answer is one the class built at load, so a lookup allocates
   nothing *)
let stop_at_pc t pc =
  let img = Isa.Text.find t.ktext pc in
  match image_owner t img with
  | None -> None
  | Some (lc, bridged) ->
    (* suspended inside a bridge fragment, the thread is at the elided
       stop of the real class — same stop id, same frame, so capture
       (and hence re-migration from inside a bridge) needs no special
       case *)
    let id =
      if bridged >= 0 then bridged
      else Emc.Busstop.id_of_pc lc.lc_stops (pc - img.Isa.Text.base)
    in
    if id < 0 then None else lc.lc_at_stop.(id)

let at_stop t (seg : Thread.segment) =
  match seg.Thread.seg_status with
  | Thread.Parked Thread.Run ->
    seg.Thread.seg_spawn <> None || stop_at_pc t seg.Thread.seg_ctx.M.pc <> None
  | Thread.Parked _ | Thread.Running | Thread.Blocked_monitor _ | Thread.Awaiting_reply _
  | Thread.Dead -> true

let stop_by_id t ~class_index ~stop_id =
  Emc.Busstop.by_id (loaded_class t class_index).lc_stops stop_id

let frame_info t ~class_index ~method_index =
  (loaded_class t class_index).lc_stops.Emc.Busstop.bt_frames.(method_index)

let result_type t ~class_index ~method_index =
  let ct = (loaded_class t class_index).lc_class.Emc.Compile.cc_template in
  let op = ct.Emc.Template.ct_ops.(method_index) in
  Option.map
    (fun v ->
      let _, ty, _ = op.Emc.Template.ot_vars.(v) in
      ty)
    op.Emc.Template.ot_result_var

(* Bridge fragments: real target-ISA code generated for a landing thread
   parked at a bus stop this node's instance elided (section 2.4).  The
   fragment polls at the stop — so an armed eviction trap or poll request
   can capture the thread the moment it lands, reporting the same stop —
   then jumps to the stop's resume point in the class image.  No
   source-level action executes in between: exactly-once by
   construction. *)
let ensure_bridge t ~class_index (entry : Emc.Busstop.entry) =
  let lc = loaded_class t class_index in
  let code_oid = lc.lc_code.Isa.Code.code_oid in
  let stop_id = entry.Emc.Busstop.be_id in
  match Bridge.find t.kbridge ~code_oid ~stop_id with
  | Some base -> base
  | None ->
    let cont = lc.lc_image.Isa.Text.base + entry.Emc.Busstop.be_pc in
    let insns = [| Isa.Insn.Poll stop_id; Isa.Insn.Jmp_abs cont |] in
    let frag_oid = Bridge.fresh_oid t.kbridge in
    let code =
      Isa.Code.make ~arch:t.karch ~code_oid:frag_oid
        ~class_name:
          (Printf.sprintf "%s$bridge%d" lc.lc_code.Isa.Code.class_name stop_id)
        ~methods:[||] insns
    in
    let image = Isa.Text.load t.ktext code in
    Oid_table.replace t.code_owner frag_oid (Some (lc, stop_id));
    Bridge.add t.kbridge ~code_oid ~stop_id image.Isa.Text.base;
    image.Isa.Text.base

(* where a thread parked at [entry] resumes on this node: the stop's PC
   in the class image, or a bridge fragment when this node's instance
   elided the stop *)
let resume_abs t ~class_index (entry : Emc.Busstop.entry) =
  if entry.Emc.Busstop.be_elided then ensure_bridge t ~class_index entry
  else (loaded_class t class_index).lc_image.Isa.Text.base + entry.Emc.Busstop.be_pc

(* Threads --------------------------------------------------------------------- *)

let segments t = Hashtbl.fold (fun _ s acc -> s :: acc) t.segs []
let find_segment t id = Hashtbl.find_opt t.segs id
let segment_by_rank t i = t.seg_order.(i)

(* the first ordered slot whose segment id is at least [id] *)
let seg_rank t id =
  let lo = ref 0 and hi = ref t.nsegs in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.seg_order.(mid).Thread.seg_id < id then lo := mid + 1 else hi := mid
  done;
  !lo

let order_segment t seg =
  let id = seg.Thread.seg_id and n = t.nsegs in
  let i = seg_rank t id in
  if i < n && t.seg_order.(i).Thread.seg_id = id then t.seg_order.(i) <- seg
  else begin
    if n = Array.length t.seg_order then begin
      let bigger = Array.make (max 8 (2 * n)) seg in
      Array.blit t.seg_order 0 bigger 0 n;
      t.seg_order <- bigger
    end;
    Array.blit t.seg_order i t.seg_order (i + 1) (n - i);
    t.seg_order.(i) <- seg;
    t.nsegs <- n + 1
  end

let unorder_segment t id =
  let i = seg_rank t id in
  if i < t.nsegs && t.seg_order.(i).Thread.seg_id = id then begin
    Array.blit t.seg_order (i + 1) t.seg_order i (t.nsegs - i - 1);
    t.nsegs <- t.nsegs - 1
  end

let fresh_tid t =
  t.tid_serial <- t.tid_serial + 1;
  Thread.fresh_tid ~node_id:t.knode_id ~serial:t.tid_serial

let fresh_seg_id t =
  t.seg_serial <- t.seg_serial + 1;
  Thread.fresh_seg_id ~node_id:t.knode_id ~serial:t.seg_serial

(* Stacks.  Every landing and every remote invocation needs a stack
   region.  The kernel holds a region from [alloc_stack] until
   [release_stack] finds no registered segment on it (the runs a split
   leaves behind share their original region), then pools it; the next
   [alloc_stack] reuses the most recently pooled region, zero-filled so
   it is byte-identical to a fresh one.  Pooled regions stay counted in
   the heap's live bytes — they are kernel-owned memory, not garbage —
   so the collector's threshold input does not swing with thread
   traffic. *)

let alloc_stack t =
  let top =
    match t.stack_pool with
    | top :: rest ->
      t.stack_pool <- rest;
      Mem.zero_fill t.kmem (top - stack_bytes) stack_bytes;
      top
    | [] -> Heap.alloc t.kheap stack_bytes + stack_bytes
  in
  Hashtbl.replace t.stack_users top 0;
  top

let join_stack t (seg : Thread.segment) =
  let top = seg.Thread.seg_stack_top in
  let n = Option.value ~default:0 (Hashtbl.find_opt t.stack_users top) in
  Hashtbl.replace t.stack_users top (n + 1)

let leave_stack t (seg : Thread.segment) =
  let top = seg.Thread.seg_stack_top in
  match Hashtbl.find_opt t.stack_users top with
  | Some n -> Hashtbl.replace t.stack_users top (n - 1)
  | None -> ()

let release_stack t (seg : Thread.segment) =
  let top = seg.Thread.seg_stack_top in
  match Hashtbl.find_opt t.stack_users top with
  | Some 0 ->
    Hashtbl.remove t.stack_users top;
    t.stack_pool <- top :: t.stack_pool
  | Some _ | None -> ()

let pooled_stacks t = t.stack_pool

(* the [i]th ready segment *)
let ready_at t i = t.ready.((t.ready_head + i) mod Array.length t.ready)

let enqueue_ready t seg =
  let n = t.ready_len in
  if n = Array.length t.ready then begin
    t.ready <- Array.init (max 8 (2 * n)) (fun i -> if i < n then ready_at t i else seg);
    t.ready_head <- 0
  end;
  t.ready.((t.ready_head + n) mod Array.length t.ready) <- seg;
  t.ready_len <- n + 1;
  if n >= t.peak_ready then t.peak_ready <- n + 1

let register_segment t seg =
  (match Hashtbl.find_opt t.segs seg.Thread.seg_id with
  | Some old when old == seg -> ()
  | prev -> (
    join_stack t seg;
    match prev with
    | Some old ->
      (* superseded: the old record can never run again *)
      old.Thread.seg_live <- false;
      leave_stack t old;
      release_stack t old
    | None -> ()));
  seg.Thread.seg_live <- true;
  Hashtbl.replace t.segs seg.Thread.seg_id seg;
  order_segment t seg;
  Hashtbl.remove t.seg_forwards seg.Thread.seg_id;
  match seg.Thread.seg_status with
  | Thread.Parked _ -> enqueue_ready t seg
  | Thread.Running | Thread.Blocked_monitor _ | Thread.Awaiting_reply _ | Thread.Dead ->
    ()

let unregister_segment t seg =
  (match Hashtbl.find_opt t.segs seg.Thread.seg_id with
  | Some cur ->
    cur.Thread.seg_live <- false;
    leave_stack t cur
  | None -> ());
  seg.Thread.seg_live <- false;
  Hashtbl.remove t.segs seg.Thread.seg_id;
  unorder_segment t seg.Thread.seg_id;
  Hashtbl.remove t.evict_arms seg.Thread.seg_id

let retire_segment t seg =
  seg.Thread.seg_status <- Thread.Dead;
  unregister_segment t seg;
  release_stack t seg

let set_seg_forward t ~seg_id ~node = Hashtbl.replace t.seg_forwards seg_id node
let seg_forward t ~seg_id = Hashtbl.find_opt t.seg_forwards seg_id

(* seed a fresh segment's context so the method prologue finds self and the
   arguments where the calling convention puts them, with the sentinel
   return address 0 marking the bottom of the segment *)
let seed_call_frame t ctx ~stack_top ~target_addr ~entry_pc ~raw_args =
  (* the target lands in a register (SPARC) or a fresh frame slot — grey
     it if a mark cycle is in progress *)
  graft_addr t target_addr;
  let family = t.karch.A.family in
  (match family with
  | A.Vax | A.M68k ->
    let sp = ref stack_top in
    let push v =
      sp := !sp - 4;
      Mem.store32 t.kmem !sp v
    in
    List.iter push (List.rev raw_args);
    push (Int32.of_int target_addr);
    push 0l;
    (* sentinel return address *)
    M.set_sp ctx !sp;
    M.set_fp ctx 0
  | A.Sparc ->
    M.set_reg_int ctx 8 target_addr;
    List.iteri (fun i v -> M.set_reg ctx (8 + 1 + i) v) raw_args;
    M.set_reg_int ctx 15 0;
    (* %o7 sentinel *)
    M.set_sp ctx stack_top);
  ctx.M.pc <- entry_pc

let spawn_exact t ~(spawn : Thread.spawn_info) ~link ~thread ~seg_id ~status =
  let class_index = spawn.Thread.si_class in
  let method_index = spawn.Thread.si_method in
  let args = spawn.Thread.si_args in
  let target_addr =
    match find_object t spawn.Thread.si_target with
    | Some addr -> addr
    | None ->
      error "spawn: target %s is not resident on node %d"
        (Oid.to_string spawn.Thread.si_target)
        t.knode_id
  in
  let lc = loaded_class t class_index in
  let minfo = lc.lc_code.Isa.Code.methods.(method_index) in
  let result_type = result_type t ~class_index ~method_index in
  let stack_top = alloc_stack t in
  let ctx = M.create_ctx t.karch in
  let raw_args = List.map (raw_of_value t) args in
  seed_call_frame t ctx ~stack_top ~target_addr
    ~entry_pc:(lc.lc_image.Isa.Text.base + minfo.Isa.Code.entry_offset)
    ~raw_args;
  let seg =
    {
      Thread.seg_id;
      seg_thread = thread;
      seg_status = status;
      seg_ctx = ctx;
      seg_stack_top = stack_top;
      seg_stack_bottom = stack_top - stack_bytes + 256;
      seg_link = link;
      seg_result_type = result_type;
      seg_spawn = Some spawn;
      seg_live = false;
    }
  in
  ctx.M.stack_limit <- seg.Thread.seg_stack_bottom;
  register_segment t seg;
  seg

let spawn_segment t ~target_addr ~class_index ~method_index ~args ~link ~thread =
  let spawn =
    {
      Thread.si_target = oid_at t target_addr;
      si_class = class_index;
      si_method = method_index;
      si_args = args;
    }
  in
  spawn_exact t ~spawn ~link ~thread ~seg_id:(fresh_seg_id t)
    ~status:(Thread.Parked Thread.Run)

let spawn_root t ~target_addr ~method_name ~args =
  let class_index = class_of_object t target_addr in
  let lc = loaded_class t class_index in
  let cname = lc.lc_class.Emc.Compile.cc_name in
  let method_index =
    match Isa.Code.method_by_name lc.lc_code method_name with
    | Some m -> m.Isa.Code.method_index
    | None -> error "object %s has no operation %s" cname method_name
  in
  let op = lc.lc_class.Emc.Compile.cc_template.Emc.Template.ct_ops.(method_index) in
  let nparams = op.Emc.Template.ot_nparams - 1 in
  if List.length args <> nparams then
    error "operation %s.%s takes %d argument(s), given %d" cname method_name nparams
      (List.length args);
  let tid = fresh_tid t in
  ignore (spawn_segment t ~target_addr ~class_index ~method_index ~args ~link:None ~thread:tid);
  tid

let spawn_rpc t ~target_addr ~callee_class ~callee_method ~args ~link ~thread =
  spawn_segment t ~target_addr ~class_index:callee_class ~method_index:callee_method
    ~args ~link:(Some link) ~thread

(* start an object's process section as an independent thread *)
let start_process_if_any t ~target_addr =
  let class_index = class_of_object t target_addr in
  let method_index = (loaded_class t class_index).lc_process in
  if method_index < 0 then None
  else begin
    let tid = fresh_tid t in
    ignore
      (spawn_segment t ~target_addr ~class_index ~method_index ~args:[] ~link:None ~thread:tid);
    Some tid
  end

let deliver_result t seg value =
  match seg.Thread.seg_status with
  | Thread.Awaiting_reply { stop_id } ->
    (* resume at the canonical stop PC with the value in the return-value
       register (applied at dispatch) *)
    let pc = seg.Thread.seg_ctx.M.pc in
    let lc =
      match image_owner t (Isa.Text.find t.ktext pc) with
      | Some (lc, _) -> lc
      | None -> error "deliver_result: PC %#x is in no loaded code" pc
    in
    let entry = Emc.Busstop.by_id lc.lc_stops stop_id in
    seg.Thread.seg_ctx.M.pc <- lc.lc_image.Isa.Text.base + entry.Emc.Busstop.be_pc;
    seg.Thread.seg_status <- Thread.Parked (Thread.Deliver value);
    enqueue_ready t seg
  | Thread.Parked _ | Thread.Running | Thread.Blocked_monitor _ | Thread.Dead ->
    error "deliver_result: segment %d is not awaiting a reply" seg.Thread.seg_id

let root_result t tid = Hashtbl.find_opt t.root_results tid
let fold_root_results t f acc =
  if Hashtbl.length t.root_results = 0 then acc else Hashtbl.fold f t.root_results acc

(* Monitors ------------------------------------------------------------------- *)

let monitor_locked t ~obj_addr = Mem.load32 t.kmem (obj_addr + L.obj_lock) <> 0l

let set_monitor_locked t ~obj_addr v =
  Mem.store32 t.kmem (obj_addr + L.obj_lock) (if v then 1l else 0l)

let queue_insert_tail t ~sent ~qnode =
  let last = Int32.to_int (Mem.load32 t.kmem (sent + 4)) in
  Mem.store32 t.kmem (qnode + L.qnode_flink) (Int32.of_int sent);
  Mem.store32 t.kmem (qnode + L.qnode_blink) (Int32.of_int last);
  Mem.store32 t.kmem (last + L.qnode_flink) (Int32.of_int qnode);
  Mem.store32 t.kmem (sent + 4) (Int32.of_int qnode)

let queue_unlink_head t ~sent =
  let first = Int32.to_int (Mem.load32 t.kmem sent) in
  if first = sent then None
  else begin
    let next = Mem.load32 t.kmem first in
    Mem.store32 t.kmem sent next;
    Mem.store32 t.kmem (Int32.to_int next + 4) (Int32.of_int sent);
    Some first
  end

let class_geometry t ~obj_addr =
  let class_index = class_of_object t obj_addr in
  let tmpl = (loaded_class t class_index).lc_class.Emc.Compile.cc_template in
  ( Array.length tmpl.Emc.Template.ct_fields,
    Array.length tmpl.Emc.Template.ct_conditions )

let cond_sentinel_addr t ~obj_addr ~cond =
  let nfields, _ = class_geometry t ~obj_addr in
  obj_addr + L.cond_sentinel ~nfields cond

let waiters_of_sentinel t sent =
  let rec walk node acc =
    if node = sent then List.rev acc
    else
      let seg_id = Int32.to_int (Mem.load32 t.kmem (node + L.qnode_thread)) in
      let acc =
        match find_segment t seg_id with
        | Some seg -> seg :: acc
        | None -> acc
      in
      walk (Int32.to_int (Mem.load32 t.kmem node)) acc
  in
  walk (Int32.to_int (Mem.load32 t.kmem sent)) []

let monitor_waiters t ~obj_addr = waiters_of_sentinel t (obj_addr + L.obj_qflink)

let condition_waiters t ~obj_addr ~cond =
  waiters_of_sentinel t (cond_sentinel_addr t ~obj_addr ~cond)

let block_on_queue t ~obj_addr ~cond ?deadline seg =
  let qnode = Heap.alloc t.kheap L.qnode_size in
  Mem.store32 t.kmem (qnode + L.qnode_thread) (Int32.of_int seg.Thread.seg_id);
  let sent =
    if cond < 0 then obj_addr + L.obj_qflink else cond_sentinel_addr t ~obj_addr ~cond
  in
  queue_insert_tail t ~sent ~qnode;
  seg.Thread.seg_status <-
    Thread.Blocked_monitor { mon_addr = obj_addr; qnode; cond; deadline }

let block_on_monitor t ~obj_addr seg = block_on_queue t ~obj_addr ~cond:(-1) seg

let monitor_enqueue_blocked t ~obj_addr ?(cond = -1) ?deadline seg =
  block_on_queue t ~obj_addr ~cond ?deadline seg

(* splice a queue node out of whatever circular queue holds it *)
let queue_unlink t ~qnode =
  let flink = Mem.load32 t.kmem (qnode + L.qnode_flink) in
  let blink = Mem.load32 t.kmem (qnode + L.qnode_blink) in
  Mem.store32 t.kmem (Int32.to_int blink + L.qnode_flink) flink;
  Mem.store32 t.kmem (Int32.to_int flink + L.qnode_blink) blink

(* System-call dispatch --------------------------------------------------------- *)

let retval_reg t =
  match t.karch.A.family with
  | A.Vax -> 0
  | A.M68k -> 0
  | A.Sparc -> 8 (* %o0 *)

(* argument [i] of the system call a segment stopped at, as an int: a
   stack slot on the CISCs, an out register on SPARC *)
let arg t ctx i =
  match t.karch.A.family with
  | A.Vax | A.M68k -> M.sx (Mem.load32_bits t.kmem (M.sp ctx + (4 * i)))
  | A.Sparc -> M.reg_int ctx (8 + i)

(* pop the arguments and step past the call, whose result (if any) is
   in the return-value register *)
let complete_syscall t seg =
  let ctx = seg.Thread.seg_ctx in
  let entry =
    match stop_at_pc t ctx.M.pc with
    | Some (_, entry) -> entry
    | None -> error "segment %d: completion PC is not a bus stop" seg.Thread.seg_id
  in
  (match t.karch.A.family with
  | A.Vax | A.M68k -> M.set_sp ctx (M.sp ctx + entry.Emc.Busstop.be_pop_bytes)
  | A.Sparc -> ());
  M.syscall_resume ctx ~text:t.ktext

(* A service that completes parks the segment at its stop with the
   completion, applied at its next dispatch, so the segment remains
   capturable at a bus stop in the meantime.  An int, bool or reference
   result parks as a word. *)
let park t seg status =
  seg.Thread.seg_status <- status;
  enqueue_ready t seg;
  []

let park_done t seg = park t seg (Thread.Parked (Thread.Complete None))
let park_value t seg v = park t seg (Thread.Parked (Thread.Complete (Some v)))
let park_word t seg w bits = park t seg (Thread.Parked (Thread.Complete_word (w, bits)))

(* release the monitor (hand the lock to the next entry-queue waiter or
   clear it — the kernel-side equivalent of the exit sequence), then
   block on the condition's queue; on wake the monitor has been
   re-granted and the wait system call completes.  [deadline] arms a
   timed wait: if no signal arrives by that virtual time, the waiter
   re-queues for monitor entry on its own (see [expire_timeouts]). *)
let cond_wait t seg ~obj ~cond ~deadline =
  (match queue_unlink_head t ~sent:(obj + L.obj_qflink) with
  | Some qnode ->
    let waiter = Int32.to_int (Mem.load32 t.kmem (qnode + L.qnode_thread)) in
    Heap.free t.kheap ~addr:qnode ~size:L.qnode_size;
    (match find_segment t waiter with
    | Some w ->
      w.Thread.seg_status <- Thread.Parked (Thread.Complete None);
      enqueue_ready t w
    | None -> error "condition wait: unknown entry waiter %d" waiter)
  | None -> set_monitor_locked t ~obj_addr:obj false);
  block_on_queue t ~obj_addr:obj ~cond ?deadline seg;
  []

(* Mesa semantics: a signalled or timed-out condition waiter lines up for
   monitor entry and runs once the holder (or a later one) leaves.  Its
   queue node goes to the tail of the entry queue, and its segment
   becomes an entry waiter with no deadline. *)
let requeue_for_entry t ~obj_addr ~qnode =
  queue_insert_tail t ~sent:(obj_addr + L.obj_qflink) ~qnode;
  let waiter = Int32.to_int (Mem.load32 t.kmem (qnode + L.qnode_thread)) in
  match find_segment t waiter with
  | Some ({ Thread.seg_status = Thread.Blocked_monitor b; _ } as w) ->
    w.Thread.seg_status <- Thread.Blocked_monitor { b with cond = -1; deadline = None }
  | _ -> ()

(* move the condition's first waiter to the entry queue; [false] when
   the condition has none *)
let cond_signal t ~obj ~cond =
  match queue_unlink_head t ~sent:(cond_sentinel_addr t ~obj_addr:obj ~cond) with
  | None -> false
  | Some qnode ->
    requeue_for_entry t ~obj_addr:obj ~qnode;
    true

let format_real t raw =
  let x = Isa.Float_format.decode t.karch.A.float_format (Int32.of_int raw) in
  Printf.sprintf "%g" x

let wrong_call (entry : Emc.Busstop.entry) nr =
  error "system call %d at stop %d, a %s stop" nr entry.Emc.Busstop.be_id
    (Emc.Busstop.kind_name entry.Emc.Busstop.be_kind)

(* A system call is a bus stop, so the stop's kind says which service
   runs and how many arguments it takes; the call number in the code
   only has to agree with it.  Returns the call's outcalls: none when
   it parked or the segment waits (blocked, or awaiting a local callee),
   one for a cluster-level action, which does not complete here. *)
let dispatch_syscall t seg (entry : Emc.Busstop.entry) nr =
  let ctx = seg.Thread.seg_ctx in
  t.syscalls <- t.syscalls + 1;
  charge_insns t 60;
  (* trap + kernel entry/exit *)
  if nr <> Emc.Sysno.of_stop entry.Emc.Busstop.be_kind then wrong_call entry nr;
  match entry.Emc.Busstop.be_kind with
  | Emc.Ir.Sk_loop -> wrong_call entry nr
  | Emc.Ir.Sk_invoke { argc; callee_class; callee_method; _ } ->
    let target_addr = arg t ctx 0 in
    if target_addr = 0 then error "invocation of nil";
    let local_addr =
      if is_resident t target_addr then Some target_addr
      else
        (* a stale proxy for an object that is actually here (it came
           home after the proxy was created): call locally, fixing the
           self argument to the resident descriptor *)
        find_object t (oid_at t target_addr)
    in
    let op =
      (Emc.Compile.class_by_index (program t) callee_class).Emc.Compile.cc_template
        .Emc.Template.ct_ops.(callee_method)
    in
    (* parameters occupy var ids 1 .. argc (0 is self) *)
    let args =
      List.init argc (fun i ->
          let _, ty, _ = op.Emc.Template.ot_vars.(i + 1) in
          value_of_raw t ty (Int32.of_int (arg t ctx (i + 1))))
    in
    let stop_id = entry.Emc.Busstop.be_id in
    seg.Thread.seg_status <- Thread.Awaiting_reply { stop_id };
    (match local_addr with
    | Some real_addr ->
      (* the object is here after all (a stale proxy, or code loaded
         behind the fast path's back): run the invocation as a local
         child segment so the caller stays parked at its bus stop *)
      ignore
        (spawn_rpc t ~target_addr:real_addr ~callee_class ~callee_method ~args
           ~link:{ Thread.ln_node = t.knode_id; ln_seg = seg.Thread.seg_id }
           ~thread:seg.Thread.seg_thread
          : Thread.segment);
      []
    | None ->
      let target_oid = oid_at t target_addr and hint_node = proxy_hint t target_addr in
      [ Oc_invoke { seg; target_oid; hint_node; callee_class; callee_method; args; stop_id } ])
  | Emc.Ir.Sk_new { class_index } ->
    charge_insns t 120;
    let addr = create_object t ~class_index in
    (* [Oid.intern (oid_at t addr)], read without the int32 *)
    park_word t seg Value.Wref (M.sx (Mem.load32_bits t.kmem (addr + L.obj_oid)))
  | Emc.Ir.Sk_mon_enter ->
    let obj = arg t ctx 0 in
    if obj = 0 then error "monitor entry on nil";
    if monitor_locked t ~obj_addr:obj then begin
      block_on_monitor t ~obj_addr:obj seg;
      []
    end
    else begin
      set_monitor_locked t ~obj_addr:obj true;
      park_done t seg
    end
  | Emc.Ir.Sk_mon_dequeue ->
    let obj = arg t ctx 0 in
    let waiter =
      match queue_unlink_head t ~sent:(obj + L.obj_qflink) with
      | None -> None
      | Some qnode ->
        let waiter = Int32.to_int (Mem.load32 t.kmem (qnode + L.qnode_thread)) in
        Heap.free t.kheap ~addr:qnode ~size:L.qnode_size;
        (* mark the waiter as dequeued-but-not-woken *)
        (match find_segment t waiter with
        | Some w -> (
          match w.Thread.seg_status with
          | Thread.Blocked_monitor { mon_addr; _ } ->
            w.Thread.seg_status <-
              Thread.Blocked_monitor { mon_addr; qnode = 0; cond = -1; deadline = None }
          | _ -> ())
        | None -> ());
        Some waiter
    in
    park t seg (Thread.Parked (Thread.Complete_dequeue waiter))
  | Emc.Ir.Sk_mon_wake ->
    let qnode = arg t ctx 0 in
    let seg_id = Int32.to_int (Mem.load32 t.kmem (qnode + L.qnode_thread)) in
    (match find_segment t seg_id with
    | Some waiter ->
      waiter.Thread.seg_status <- Thread.Parked (Thread.Complete None);
      enqueue_ready t waiter
    | None -> error "monitor wake: unknown segment %d" seg_id);
    Heap.free t.kheap ~addr:qnode ~size:L.qnode_size;
    park_done t seg
  | Emc.Ir.Sk_builtin { bi; _ } -> (
    match bi with
    | Emc.Ir.Bprint_int ->
      print_string_out t (string_of_int (arg t ctx 0));
      park_done t seg
    | Emc.Ir.Bprint_real ->
      print_string_out t (format_real t (arg t ctx 0));
      park_done t seg
    | Emc.Ir.Bprint_bool ->
      print_string_out t (if arg t ctx 0 = 0 then "false" else "true");
      park_done t seg
    | Emc.Ir.Bprint_str ->
      let s = arg t ctx 0 in
      print_string_out t (if s = 0 then "nil" else read_string_block t s);
      park_done t seg
    | Emc.Ir.Bprint_ref ->
      let r = arg t ctx 0 in
      print_string_out t
        (if r = 0 then "nil"
         else if is_vector_block t r then
           Printf.sprintf "vector[%ld]" (Mem.load32 t.kmem (r + L.vec_len))
         else Oid.to_string (oid_at t r));
      park_done t seg
    | Emc.Ir.Bprint_nl ->
      print_string_out t "\n";
      park_done t seg
    | Emc.Ir.Blocate ->
      let r = arg t ctx 0 in
      if r = 0 then error "locate of nil";
      let node = if is_resident t r then t.knode_id else proxy_hint t r in
      park_word t seg Value.Wint node
    | Emc.Ir.Bthisnode -> park_word t seg Value.Wint t.knode_id
    | Emc.Ir.Btimenow ->
      park_word t seg Value.Wint (Int32.to_int (Int32.of_float t.kclock.Sim.Clock.now))
    | Emc.Ir.Bmove ->
      let obj_addr = arg t ctx 0 and dest_node = arg t ctx 1 in
      if obj_addr = 0 then error "move of nil";
      [ Oc_move { seg; obj_addr; dest_node } ]
    | Emc.Ir.Bsconcat ->
      let sa = read_string_block t (arg t ctx 0) in
      let sb = read_string_block t (arg t ctx 1) in
      charge_insns t (10 * (String.length sa + String.length sb));
      park_value t seg (Value.Vstr (sa ^ sb))
    | Emc.Ir.Bseq ->
      let equal = string_blocks_equal t (arg t ctx 0) (arg t ctx 1) in
      park_word t seg Value.Wbool (Bool.to_int equal)
    | Emc.Ir.Bvec_new ->
      let kind = arg t ctx 0 and len = arg t ctx 1 in
      if len < 0 then error "vector length %d is negative" len;
      charge_insns t (60 + len);
      let elem = typ_of_kind kind in
      park_value t seg (Value.Vvec (elem, Array.make len (default_value_of_typ elem)))
    | Emc.Ir.Bbounds -> error "vector index %d out of bounds" (arg t ctx 0)
    | Emc.Ir.Bstart_process ->
      let obj = arg t ctx 0 in
      charge_insns t 150;
      if is_resident t obj then begin
        ignore (start_process_if_any t ~target_addr:obj);
        park_done t seg
      end
      else begin
        (* the object moved away while its initially ran: the process must
           start where the object now lives; the creator continues *)
        ignore (park_done t seg : outcall list);
        [ Oc_start_process { target_oid = oid_at t obj; hint_node = proxy_hint t obj } ]
      end
    | Emc.Ir.Bcond_wait ->
      let obj = arg t ctx 0 and cond = arg t ctx 1 in
      cond_wait t seg ~obj ~cond ~deadline:None
    | Emc.Ir.Bcond_wait_timed ->
      let obj = arg t ctx 0 and cond = arg t ctx 1 and timeout = arg t ctx 2 in
      let deadline = time_us t +. Float.max 0.0 (float_of_int timeout) in
      cond_wait t seg ~obj ~cond ~deadline:(Some deadline)
    | Emc.Ir.Bcond_signal ->
      let obj = arg t ctx 0 and cond = arg t ctx 1 in
      ignore (cond_signal t ~obj ~cond : bool);
      park_done t seg
    | Emc.Ir.Bcond_notify_all ->
      let obj = arg t ctx 0 and cond = arg t ctx 1 in
      (* signal until no waiter is left, preserving queue order (Mesa
         notify-all: each re-acquires the monitor in turn) *)
      while cond_signal t ~obj ~cond do
        ()
      done;
      park_done t seg)

(* Scheduling ---------------------------------------------------------------- *)

let has_ready t = t.ready_len > 0
let live_segment_count t = t.nsegs

let apply_resume t seg =
  let ctx = seg.Thread.seg_ctx in
  match seg.Thread.seg_status with
  | Thread.Parked Thread.Run -> ()
  | Thread.Parked (Thread.Deliver v) ->
    M.set_reg ctx (retval_reg t) (raw_of_value t v)
  | Thread.Parked (Thread.Complete None) -> complete_syscall t seg
  | Thread.Parked (Thread.Complete (Some v)) ->
    M.set_reg ctx (retval_reg t) (raw_of_value t v);
    complete_syscall t seg
  | Thread.Parked (Thread.Complete_word (w, bits)) ->
    (* a reference resolves here, as [raw_of_value] resolves a [Vref] *)
    let raw = match w with Value.Wint | Value.Wbool -> bits | Value.Wref -> ensure_ref_key t bits in
    M.set_reg_int ctx (retval_reg t) raw;
    complete_syscall t seg
  | Thread.Parked (Thread.Complete_dequeue waiter) ->
    let qnode =
      match waiter with
      | None -> 0
      | Some seg_id ->
        (* fabricate the queue node the generated code hands to the wake
           system call *)
        let qnode = Heap.alloc t.kheap L.qnode_size in
        Mem.store32 t.kmem (qnode + L.qnode_thread) (Int32.of_int seg_id);
        qnode
    in
    M.set_reg_int ctx (retval_reg t) qnode;
    complete_syscall t seg
  | Thread.Running | Thread.Blocked_monitor _ | Thread.Awaiting_reply _ | Thread.Dead ->
    error "apply_resume: segment %d is not resumable" seg.Thread.seg_id

(* Forced eviction.  [evict_thread] arms a trap: the segment's id maps to
   its eviction destination in [evict_arms].  While armed, every dispatch
   of that segment runs with [poll_requested] pinned, so the CPU hands
   control back at the very next bus stop — no cooperative poll request by
   other ready work is needed.  The trap fires as soon as the segment is
   capturable: parked at a stop, blocked on a monitor queue, or awaiting a
   remote reply. *)

let capturable t (seg : Thread.segment) =
  seg.Thread.seg_live
  && (match seg.Thread.seg_status with
     | Thread.Running | Thread.Dead -> false
     | Thread.Parked Thread.Run ->
       (* A segment parked at a system-call stop PRE-execution (only
          reachable via [advance_to_stop] after preemption) still holds
          its call arguments in machine-dependent form — pushed on the
          stack on the CISCs, staged in out-registers on SPARC — and
          those are not part of the stop's canonical slot map.  Capturing
          here would re-execute the call on the target with lost
          arguments.  Defer: the trap stays armed and fires one dispatch
          later, at the post-execution [Parked (Complete _)] parking,
          where the arguments are consumed and state is slot-canonical. *)
       seg.Thread.seg_spawn <> None
       || (match stop_at_pc t seg.Thread.seg_ctx.M.pc with
          | Some (_, entry) -> entry.Emc.Busstop.be_kind = Emc.Ir.Sk_loop
          | None -> false)
     | Thread.Parked _ | Thread.Blocked_monitor _ | Thread.Awaiting_reply _ ->
       true)

let eviction_due t (seg : Thread.segment) =
  match Hashtbl.find_opt t.evict_arms seg.Thread.seg_id with
  | Some arm when capturable t seg -> Some arm
  | _ -> None

(* fire the trap: the segment ships to its destination.  The caller
   (cluster) runs the actual move; from the kernel's point of view the
   segment is gone once the move initiates. *)
let fire_eviction t (seg : Thread.segment) ~dest_node ~armed_us =
  Hashtbl.remove t.evict_arms seg.Thread.seg_id;
  t.evictions <- t.evictions + 1;
  Oc_evict { seg; dest_node; armed_us }

let fire_due_evictions t (seg : Thread.segment) outs =
  match eviction_due t seg with
  | Some (dest_node, armed_us) ->
    outs @ [ fire_eviction t seg ~dest_node ~armed_us ]
  | None -> outs

let evict_thread t ~seg_id ~dest_node =
  match Hashtbl.find_opt t.segs seg_id with
  | None -> []
  | Some seg ->
    if (not seg.Thread.seg_live) || seg.Thread.seg_status = Thread.Dead then []
    else begin
      Hashtbl.replace t.evict_arms seg_id (dest_node, Sim.Clock.now t.kclock);
      (* already parked / blocked / awaiting: capture immediately *)
      fire_due_evictions t seg []
    end

let evictions t = t.evictions
let evictions_armed t = Hashtbl.length t.evict_arms

(* a migrated or finished segment may still sit in the run queue (entries
   are skipped lazily at dispatch); the load signal must not count them *)
let ready_depth t =
  let d = ref 0 in
  for i = 0 to t.ready_len - 1 do
    let seg = ready_at t i in
    if seg.Thread.seg_live && Hashtbl.mem t.segs seg.Thread.seg_id then incr d
  done;
  !d

let peak_ready_depth t = t.peak_ready

(* Timed waits.  A [Blocked_monitor] with a deadline re-queues for the
   monitor on its own when virtual time passes the deadline without a
   signal.  The cluster polls [next_timeout] to schedule a wake event and
   calls [expire_timeouts] when it fires. *)

(* over the ordered segments from slot [i]; the answer is the earliest
   waiter's own [deadline], so the scan the loop runs after every step
   builds nothing *)
let rec earliest_deadline t i best =
  if i >= t.nsegs then best
  else
    let seg = t.seg_order.(i) in
    match seg.Thread.seg_status with
    | Thread.Blocked_monitor { deadline = Some d as dl; _ } when seg.Thread.seg_live
      -> (
      match best with
      | Some b when b <= d -> earliest_deadline t (i + 1) best
      | _ -> earliest_deadline t (i + 1) dl)
    | _ -> earliest_deadline t (i + 1) best

let next_timeout t = earliest_deadline t 0 None

let expire_timeouts t ~now =
  let due =
    Hashtbl.fold
      (fun _ seg acc ->
        match seg.Thread.seg_status with
        | Thread.Blocked_monitor { deadline = Some d; _ }
          when seg.Thread.seg_live && d <= now -> (d, seg) :: acc
        | _ -> acc)
      t.segs []
    |> List.sort (fun (d1, s1) (d2, s2) ->
           match Float.compare d1 d2 with
           | 0 -> compare s1.Thread.seg_id s2.Thread.seg_id
           | c -> c)
  in
  List.iter
    (fun (_, seg) ->
      match seg.Thread.seg_status with
      | Thread.Blocked_monitor { mon_addr; qnode; cond = _; deadline = _ } ->
        (* a deadline survives only while the waiter sits on a condition
           queue (signal/dequeue clear it), so the qnode is live *)
        queue_unlink t ~qnode;
        if monitor_locked t ~obj_addr:mon_addr then
          (* someone holds the monitor: line up for entry exactly like a
             signalled waiter; the wait completes when the lock is handed
             over *)
          requeue_for_entry t ~obj_addr:mon_addr ~qnode
        else begin
          (* monitor free: nobody will ever hand the lock over, so take it
             here and complete the wait directly *)
          Heap.free t.kheap ~addr:qnode ~size:L.qnode_size;
          set_monitor_locked t ~obj_addr:mon_addr true;
          seg.Thread.seg_status <- Thread.Parked (Thread.Complete None);
          enqueue_ready t seg
        end
      | _ -> ())
    due;
  List.length due

let finish_bottom_return t seg =
  let ctx = seg.Thread.seg_ctx in
  let raw = M.reg ctx (retval_reg t) in
  let value =
    match seg.Thread.seg_result_type with
    | Some ty -> value_of_raw t ty raw
    | None -> Value.Vnil
  in
  retire_segment t seg;
  match seg.Thread.seg_link with
  | Some link -> [ Oc_return { link; value; thread = seg.Thread.seg_thread } ]
  | None ->
    let result =
      match seg.Thread.seg_result_type with
      | Some _ -> Some value
      | None -> None
    in
    Hashtbl.replace t.root_results seg.Thread.seg_thread result;
    (match t.on_root_result with
    | Some f -> f ~thread:seg.Thread.seg_thread result
    | None -> ());
    []

let trapped t seg trap =
  error "node %d, thread %d: %a" t.knode_id seg.Thread.seg_thread M.pp_trap trap

(* execute the segment's native code for at most [fuel] instructions, on
   the dispatch engine or the reference interpreter *)
let run_code t ctx ~fuel =
  if t.kthreaded then Isa.Dispatch.run t.kdispatch ctx ~mem:t.kmem ~text:t.ktext ~fuel
  else M.run ctx ~mem:t.kmem ~text:t.ktext ~fuel

let step t =
  if t.ready_len = 0 then []
  else
  let seg = ready_at t 0 in
  t.ready_head <- (t.ready_head + 1) mod Array.length t.ready;
  t.ready_len <- t.ready_len - 1;
  match seg.Thread.seg_status with
  | Thread.Dead -> []
  | _ when not seg.Thread.seg_live ->
    [] (* migrated away or superseded since it was enqueued *)
  | _ -> (
    apply_resume t seg;
    seg.Thread.seg_status <- Thread.Running;
    let ctx = seg.Thread.seg_ctx in
    ctx.M.stack_limit <- seg.Thread.seg_stack_bottom;
    ctx.M.poll_requested <-
      t.ready_len > 0
      || Hashtbl.mem t.evict_arms seg.Thread.seg_id;
    let fuel = Option.value t.quantum ~default:50_000_000 in
    let cycles_before = ctx.M.cycles and insns_before = ctx.M.insns in
    let stop =
      match run_code t ctx ~fuel with
      | M.Fuel when Option.is_none t.quantum ->
        (* a thread alone on its node is never asked to poll: ask now and
           run on to the next bus stop, where it parks as at any poll *)
        ctx.M.poll_requested <- true;
        run_code t ctx ~fuel
      | stop -> stop
    in
    seg.Thread.seg_spawn <- None;
    t.insns <- t.insns + (ctx.M.insns - insns_before);
    charge_cycles t (ctx.M.cycles - cycles_before);
    let outs =
      match stop with
      | M.Poll ->
        ctx.M.poll_requested <- false;
        ctx.M.skip_poll <- true;
        park t seg (Thread.Parked Thread.Run)
      | M.Syscall nr -> (
        match stop_at_pc t ctx.M.pc with
        | None -> error "system call %d at PC %#x: no bus stop" nr ctx.M.pc
        | Some (_, entry) -> dispatch_syscall t seg entry nr)
      | M.Fuel -> (
        match t.quantum with
        | Some _ ->
          (* preempted mid-computation, Trellis/Owl style: the PC may not be
             a bus stop; anyone needing a well-defined state must call
             [advance_to_stop] first *)
          park t seg (Thread.Parked Thread.Run)
        | None ->
          error "node %d, thread %d: ran out of fuel between bus stops (codegen bug)"
            t.knode_id seg.Thread.seg_thread)
      | M.Halt ->
        retire_segment t seg;
        []
      | M.Bottom_return -> finish_bottom_return t seg
      | M.Trap trap -> trapped t seg trap
    in
    (* an armed eviction fires the moment the segment is capturable *)
    fire_due_evictions t seg outs)

(* Run a preempted segment forward to its next bus stop ("the top layer of
   the runtime system would execute the necessary number of instructions
   to exit the critical region", section 2.2.1 on Trellis/Owl — here the
   instructions run natively).  No system call is dispatched: the segment
   parks AT the stop.  Returns the outcalls of any segment-bottom return
   encountered on the way. *)
let advance_to_stop t (seg : Thread.segment) =
  if at_stop t seg then []
  else begin
    let ctx = seg.Thread.seg_ctx in
    ctx.M.poll_requested <- true;
    let cycles_before = ctx.M.cycles and insns_before = ctx.M.insns in
    let stop = run_code t ctx ~fuel:50_000_000 in
    t.insns <- t.insns + (ctx.M.insns - insns_before);
    charge_cycles t (ctx.M.cycles - cycles_before);
    match stop with
    | M.Poll ->
      ctx.M.poll_requested <- false;
      ctx.M.skip_poll <- true;
      []
    | M.Syscall _ ->
      (* parked at the system-call instruction; it runs at next dispatch *)
      ctx.M.poll_requested <- false;
      []
    | M.Fuel ->
      error "node %d, thread %d: no bus stop reachable (codegen bug)" t.knode_id
        seg.Thread.seg_thread
    | M.Halt ->
      retire_segment t seg;
      []
    | M.Bottom_return -> finish_bottom_return t seg
    | M.Trap trap -> trapped t seg trap
  end
