module A = Isa.Arch
module R = Isa.Reg
module I = Isa.Insn
module O = Isa.Operand

module Emitter = struct
  type t = {
    family : A.family;
    mutable insns : I.t array;
    mutable count : int;
    mutable label_pos : int array;  (* label -> insn index, -1 if unplaced *)
    mutable n_labels : int;
    mutable fixups : (int * int) list;  (* insn index, label *)
  }

  let create family =
    { family; insns = Array.make 64 I.Nop; count = 0; label_pos = Array.make 16 (-1);
      n_labels = 0; fixups = [] }

  let family t = t.family

  let emit t insn =
    if t.count = Array.length t.insns then begin
      let bigger = Array.make (2 * t.count) I.Nop in
      Array.blit t.insns 0 bigger 0 t.count;
      t.insns <- bigger
    end;
    t.insns.(t.count) <- insn;
    t.count <- t.count + 1;
    t.count - 1

  let next_index t = t.count

  let fresh_label t =
    if t.n_labels = Array.length t.label_pos then begin
      let bigger = Array.make (2 * t.n_labels) (-1) in
      Array.blit t.label_pos 0 bigger 0 t.n_labels;
      t.label_pos <- bigger
    end;
    t.n_labels <- t.n_labels + 1;
    t.n_labels - 1

  let place t l = t.label_pos.(l) <- t.count

  let branch t cond l =
    let insn =
      match cond with
      | Some c -> I.Bcc (c, 0)
      | None -> I.Br 0
    in
    let idx = emit t insn in
    t.fixups <- (idx, l) :: t.fixups

  (* run one optimizer pass over the whole buffer, fixing labels and
     branch fixups; returns a position remap for the caller's own tables
     (bus stops, method entries) *)
  let optimize t ~protected_idx ~pass =
    let n = t.count in
    let insns = Array.sub t.insns 0 n in
    let protected = Array.make (max n 1) false in
    List.iter (fun i -> if i >= 0 && i < n then protected.(i) <- true) protected_idx;
    for l = 0 to t.n_labels - 1 do
      let p = t.label_pos.(l) in
      if p >= 0 && p < n then protected.(p) <- true
    done;
    let out, remap = pass ~protected insns in
    let new_count = Array.length out in
    let remap_pos p = if p >= n then new_count else remap.(p) in
    t.insns <- Array.append out (Array.make (max 16 (n - new_count)) I.Nop);
    t.count <- new_count;
    for l = 0 to t.n_labels - 1 do
      if t.label_pos.(l) >= 0 then t.label_pos.(l) <- remap_pos t.label_pos.(l)
    done;
    t.fixups <- List.map (fun (idx, l) -> (remap_pos idx, l)) t.fixups;
    remap_pos

  let finalize t =
    let insns = Array.sub t.insns 0 t.count in
    let offsets, byte_size = Isa.Code.compute_offsets t.family insns in
    let offset_of_index i = if i >= t.count then byte_size else offsets.(i) in
    List.iter
      (fun (idx, l) ->
        let pos = t.label_pos.(l) in
        if pos < 0 then invalid_arg "Emitter.finalize: branch to unplaced label";
        let target = offset_of_index pos in
        insns.(idx) <-
          (match insns.(idx) with
          | I.Bcc (c, _) -> I.Bcc (c, target)
          | I.Br _ -> I.Br target
          | _ -> assert false))
      t.fixups;
    insns
end

type loc =
  | Lreg of R.t
  | Limm of int32
  | Lslot of int

type mon_exit_info = {
  me_dequeue_idx : int;
  me_dequeue_exit_only : bool;
  me_dequeue_args : int;
  me_wake_idx : int;
  me_wake_args : int;
}

module type FAMILY = sig
  val family : A.family
  val frame_size : n_slots:int -> n_scratch:int -> int
  val slot_offset : n_slots:int -> int -> int
  val scratch_offset : n_slots:int -> n_scratch:int -> int -> int
  val fixed_sp_depth : frame_size:int -> int
  val arg_push_bytes : int -> int
  val retval_reg : R.t
  val prologue : Emitter.t -> frame_size:int -> param_offsets:int array -> unit
  val epilogue : Emitter.t -> result_offset:int option -> unit
  val load : Emitter.t -> dst:R.t -> src:loc -> unit
  val store : Emitter.t -> src:R.t -> off:int -> unit
  val store_loc : Emitter.t -> src:loc -> off:int -> scratch:(unit -> R.t) -> unit
  val load_mem : Emitter.t -> dst:R.t -> base:R.t -> disp:int -> unit
  val store_mem : Emitter.t -> src:R.t -> base:R.t -> disp:int -> unit

  val bin :
    Emitter.t ->
    I.binop ->
    ty:Ir.arith_ty ->
    a:loc ->
    b:loc ->
    dst:R.t ->
    scratch:(unit -> R.t) ->
    unit

  val neg : Emitter.t -> ty:Ir.arith_ty -> a:loc -> dst:R.t -> scratch:(unit -> R.t) -> unit
  val cvt_int_real : Emitter.t -> a:loc -> dst:R.t -> scratch:(unit -> R.t) -> unit
  val cmp : Emitter.t -> ty:Ir.arith_ty -> a:loc -> b:loc -> scratch:(unit -> R.t) -> unit

  val invoke :
    Emitter.t ->
    target:loc ->
    args:loc list ->
    method_index:int ->
    scratch:(unit -> R.t) ->
    int * int

  val syscall : Emitter.t -> nr:int -> args:loc list -> scratch:(unit -> R.t) -> int
  val mon_exit : Emitter.t -> self:loc -> scratch:(unit -> R.t) -> mon_exit_info
end

let n_scratch_slots = 16

module Make (F : FAMILY) = struct
  type temp_state = {
    mutable in_reg : R.t option;
    mutable spill : int option;  (* pressure-spill scratch slot *)
  }

  type stop_proto = {
    sp_id : int;
    sp_op : int;
    sp_pc_idx : int;
    sp_alt_idx : int option;
    sp_exit_only : bool;
    sp_elided : bool;
    sp_pushed : int;
    sp_kind : Ir.stop_kind;
  }

  type ctx = {
    em : Emitter.t;
    tmpl : Template.op_t;
    ir : Ir.op_ir;
    nmethods : int;
    n_slots : int;
    frame_size : int;
    temps : temp_state array;
    temp_of_reg : (R.t, int) Hashtbl.t;
    mutable protected : R.t list;
    mutable stamp : int;
    last_use : int array;
    mutable free_spills : int list;
    use_count : int array;  (* remaining uses per temp; dead temps free their registers *)
    labels : int array;
    stops : stop_proto list ref;
    level : Opt.level;
    copt : bool;  (* -O1: cache variable values in registers between stops *)
    edits : Opt.edit list ref;  (* per-instance optimizer provenance *)
    mutable block_has_call : bool;
        (* the current IR block recorded a system-call-bearing stop, so
           every pass over its back edge already crosses a capture point
           and -O2 may elide the loop poll *)
    var_cache : (int, R.t) Hashtbl.t;  (* var id -> register holding its value *)
    cache_of_reg : (R.t, int) Hashtbl.t;
  }

  let slot_off ctx s = F.slot_offset ~n_slots:ctx.n_slots s
  let scratch_off ctx s = F.scratch_offset ~n_slots:ctx.n_slots ~n_scratch:n_scratch_slots s
  let var_off ctx v = slot_off ctx (Template.var_slot ctx.tmpl v)
  let self_off ctx = var_off ctx 0
  let protect ctx r = ctx.protected <- r :: ctx.protected
  let is_protected ctx r = List.mem r ctx.protected

  let unbind ctx t =
    match ctx.temps.(t).in_reg with
    | Some r ->
      Hashtbl.remove ctx.temp_of_reg r;
      ctx.temps.(t).in_reg <- None
    | None -> ()

  let uncache_reg ctx r =
    match Hashtbl.find_opt ctx.cache_of_reg r with
    | Some v ->
      Hashtbl.remove ctx.cache_of_reg r;
      Hashtbl.remove ctx.var_cache v
    | None -> ()

  let cache_var ctx v r =
    if ctx.copt then begin
      (match Hashtbl.find_opt ctx.var_cache v with
      | Some old -> Hashtbl.remove ctx.cache_of_reg old
      | None -> ());
      uncache_reg ctx r;
      Hashtbl.replace ctx.var_cache v r;
      Hashtbl.replace ctx.cache_of_reg r v
    end

  let uncache_var ctx v =
    match Hashtbl.find_opt ctx.var_cache v with
    | Some r ->
      Hashtbl.remove ctx.var_cache v;
      Hashtbl.remove ctx.cache_of_reg r
    | None -> ()

  let free_all ctx =
    Array.iteri (fun t _ -> unbind ctx t) ctx.temps;
    Array.iter (fun st -> st.spill <- None) ctx.temps;
    Hashtbl.reset ctx.var_cache;
    Hashtbl.reset ctx.cache_of_reg;
    ctx.free_spills <- List.init n_scratch_slots Fun.id;
    ctx.protected <- []

  let bind ctx t r =
    ctx.temps.(t).in_reg <- Some r;
    Hashtbl.replace ctx.temp_of_reg r t;
    ctx.stamp <- ctx.stamp + 1;
    ctx.last_use.(t) <- ctx.stamp

  let touch ctx t =
    ctx.stamp <- ctx.stamp + 1;
    ctx.last_use.(t) <- ctx.stamp

  let alloc_reg ctx =
    let pool = R.scratch F.family in
    (* prefer registers that are neither bound to temps nor caching vars;
       then sacrifice a cache entry; stealing a temp binding comes last *)
    let free =
      match
        List.find_opt
          (fun r ->
            (not (Hashtbl.mem ctx.temp_of_reg r))
            && (not (Hashtbl.mem ctx.cache_of_reg r))
            && not (is_protected ctx r))
          pool
      with
      | Some r -> Some r
      | None ->
        List.find_opt
          (fun r -> (not (Hashtbl.mem ctx.temp_of_reg r)) && not (is_protected ctx r))
          pool
    in
    let r =
      match free with
      | Some r -> r
      | None ->
        (* steal the least recently used unprotected binding *)
        let victim =
          List.filter_map
            (fun r ->
              if is_protected ctx r then None
              else
                Option.map (fun t -> (r, t)) (Hashtbl.find_opt ctx.temp_of_reg r))
            pool
          |> List.sort (fun (_, t1) (_, t2) ->
                 compare ctx.last_use.(t1) ctx.last_use.(t2))
          |> function
          | v :: _ -> v
          | [] -> failwith "codegen: register pressure exceeds pool with all protected"
        in
        let r, t = victim in
        (match ctx.tmpl.Template.ot_temp_slots.(t) with
        | Some _ -> () (* slotted temps are stored through at definition *)
        | None -> (
          match ctx.temps.(t).spill with
          | Some _ -> ()
          | None -> (
            match ctx.free_spills with
            | [] -> failwith "codegen: out of scratch spill slots"
            | s :: rest ->
              ctx.free_spills <- rest;
              F.store ctx.em ~src:r ~off:(scratch_off ctx s);
              ctx.temps.(t).spill <- Some s)));
        unbind ctx t;
        r
    in
    uncache_reg ctx r;
    protect ctx r;
    r

  let home_loc ctx t =
    match ctx.tmpl.Template.ot_temp_slots.(t) with
    | Some s -> Lslot (slot_off ctx s)
    | None -> (
      match ctx.temps.(t).spill with
      | Some s -> Lslot (scratch_off ctx s)
      | None ->
        failwith
          (Printf.sprintf "codegen: temp %d of %s used without a value" t
             ctx.ir.Ir.oi_name))

  (* one IR use consumed: when a temp is dead, release its register and
     any pressure-spill slot (the register stays protected for the rest of
     the current instruction) *)
  let consume ctx t =
    ctx.use_count.(t) <- ctx.use_count.(t) - 1;
    if ctx.use_count.(t) <= 0 then begin
      unbind ctx t;
      match ctx.temps.(t).spill with
      | Some s ->
        ctx.temps.(t).spill <- None;
        ctx.free_spills <- s :: ctx.free_spills
      | None -> ()
    end

  let use_loc ctx t =
    let loc =
      match ctx.temps.(t).in_reg with
      | Some r ->
        touch ctx t;
        protect ctx r;
        Lreg r
      | None -> home_loc ctx t
    in
    consume ctx t;
    loc

  let use_reg ctx t =
    let r =
      match ctx.temps.(t).in_reg with
      | Some r ->
        touch ctx t;
        protect ctx r;
        r
      | None ->
        let home = home_loc ctx t in
        let r = alloc_reg ctx in
        F.load ctx.em ~dst:r ~src:home;
        bind ctx t r;
        r
    in
    consume ctx t;
    r

  let def_reg ctx t =
    match ctx.temps.(t).in_reg with
    | Some r ->
      (* redefinition overwrites the register: any variable cached there
         becomes stale *)
      uncache_reg ctx r;
      touch ctx t;
      protect ctx r;
      r
    | None ->
      let r = alloc_reg ctx in
      bind ctx t r;
      r

  let finish_def ctx t r =
    match ctx.tmpl.Template.ot_temp_slots.(t) with
    | Some s -> F.store ctx.em ~src:r ~off:(slot_off ctx s)
    | None -> ()

  let record_stop ctx ~id ~pc_idx ?alt_idx ?(exit_only = false) ?(elided = false)
      ~pushed ~kind () =
    (match kind with
    | Ir.Sk_loop -> ()
    | Ir.Sk_invoke _ | Ir.Sk_new _ | Ir.Sk_builtin _ | Ir.Sk_mon_enter
    | Ir.Sk_mon_dequeue | Ir.Sk_mon_wake -> ctx.block_has_call <- true);
    ctx.stops :=
      {
        sp_id = id;
        sp_op = ctx.ir.Ir.oi_index;
        sp_pc_idx = pc_idx;
        sp_alt_idx = alt_idx;
        sp_exit_only = exit_only;
        sp_elided = elided;
        sp_pushed = pushed;
        sp_kind = kind;
      }
      :: !(ctx.stops)

  let stop_kind ctx id = (Ir.find_stop ctx.ir id).Ir.sr_kind

  (* the system call a stop makes, numbered by the stop's kind *)
  let syscall_stop ctx ~stop ~args ~scratch =
    let kind = stop_kind ctx stop in
    let idx = F.syscall ctx.em ~nr:(Sysno.of_stop kind) ~args ~scratch in
    record_stop ctx ~id:stop ~pc_idx:idx ~pushed:(List.length args) ~kind ()

  let self_loc ctx =
    match Hashtbl.find_opt ctx.var_cache 0 with
    | Some r ->
      protect ctx r;
      Lreg r
    | None -> Lslot (self_off ctx)

  (* self in a register, caching it for the rest of the inter-stop window *)
  let self_reg ctx ~scratch =
    match Hashtbl.find_opt ctx.var_cache 0 with
    | Some r ->
      protect ctx r;
      r
    | None ->
      let r = scratch () in
      F.load ctx.em ~dst:r ~src:(Lslot (self_off ctx));
      cache_var ctx 0 r;
      r

  (* 0 <= idx < length, with the out-of-range path ending in a bounds
     system call that aborts the thread *)
  let gen_bounds_check ctx ~rv ~ri ~stop =
    let em = ctx.em in
    let scratch () = alloc_reg ctx in
    let l_err = Emitter.fresh_label em and l_ok = Emitter.fresh_label em in
    F.cmp em ~ty:Ir.Aint ~a:(Lreg ri) ~b:(Limm 0l) ~scratch;
    Emitter.branch em (Some I.Lt) l_err;
    let rl = scratch () in
    F.load_mem em ~dst:rl ~base:rv ~disp:Layout.vec_len;
    F.cmp em ~ty:Ir.Aint ~a:(Lreg ri) ~b:(Lreg rl) ~scratch;
    Emitter.branch em (Some I.Lt) l_ok;
    Emitter.place em l_err;
    syscall_stop ctx ~stop ~args:[ Lreg ri ] ~scratch;
    Emitter.place em l_ok

  let gen_instr ctx (instr : Ir.instr) =
    ctx.protected <- [];
    let em = ctx.em in
    let scratch () = alloc_reg ctx in
    let const t v =
      let r = def_reg ctx t in
      F.load em ~dst:r ~src:(Limm v);
      finish_def ctx t r
    in
    match instr with
    | Ir.Iconst_int (t, v) -> const t v
    | Ir.Iconst_bool (t, v) -> const t (if v then 1l else 0l)
    | Ir.Iconst_nil t -> const t 0l
    | Ir.Iconst_real (t, v) ->
      let fmt =
        match F.family with
        | A.Vax -> Isa.Float_format.Vax_f
        | A.M68k | A.Sparc -> Isa.Float_format.Ieee_single
      in
      const t (Isa.Float_format.encode fmt v)
    | Ir.Iconst_str (t, s) ->
      let rs = scratch () in
      F.load em ~dst:rs ~src:(self_loc ctx);
      F.load_mem em ~dst:rs ~base:rs ~disp:Layout.obj_desc;
      let r = def_reg ctx t in
      F.load_mem em ~dst:r ~base:rs ~disp:(Layout.desc_string ~nmethods:ctx.nmethods s);
      finish_def ctx t r
    | Ir.Icopy (d, s) ->
      let src = use_loc ctx s in
      let r = def_reg ctx d in
      F.load em ~dst:r ~src;
      finish_def ctx d r
    | Ir.Iload_var (t, v) -> (
      match Hashtbl.find_opt ctx.var_cache v with
      | Some rc ->
        protect ctx rc;
        let r = def_reg ctx t in
        F.load em ~dst:r ~src:(Lreg rc);
        finish_def ctx t r
      | None ->
        let r = def_reg ctx t in
        F.load em ~dst:r ~src:(Lslot (var_off ctx v));
        cache_var ctx v r;
        finish_def ctx t r)
    | Ir.Istore_var (v, s) ->
      let src = use_loc ctx s in
      F.store_loc em ~src ~off:(var_off ctx v) ~scratch;
      (match src with
      | Lreg r -> cache_var ctx v r
      | Limm _ | Lslot _ -> uncache_var ctx v)
    | Ir.Iload_field (t, i) ->
      let rs = self_reg ctx ~scratch in
      let r = def_reg ctx t in
      F.load_mem em ~dst:r ~base:rs ~disp:(Layout.field_offset i);
      finish_def ctx t r
    | Ir.Istore_field (i, s) ->
      let rv = use_reg ctx s in
      let rs = self_reg ctx ~scratch in
      F.store_mem em ~src:rv ~base:rs ~disp:(Layout.field_offset i)
    | Ir.Ibin { dst; op; ty; a; b } ->
      let la = use_loc ctx a in
      let lb = use_loc ctx b in
      let rd = def_reg ctx dst in
      F.bin em op ~ty ~a:la ~b:lb ~dst:rd ~scratch;
      finish_def ctx dst rd
    | Ir.Ineg { dst; ty; a } ->
      let la = use_loc ctx a in
      let rd = def_reg ctx dst in
      F.neg em ~ty ~a:la ~dst:rd ~scratch;
      finish_def ctx dst rd
    | Ir.Inot { dst; a } ->
      let la = use_loc ctx a in
      let rd = def_reg ctx dst in
      F.bin em I.Xor ~ty:Ir.Aint ~a:la ~b:(Limm 1l) ~dst:rd ~scratch;
      finish_def ctx dst rd
    | Ir.Icvt_int_real { dst; a } ->
      let la = use_loc ctx a in
      let rd = def_reg ctx dst in
      F.cvt_int_real em ~a:la ~dst:rd ~scratch;
      finish_def ctx dst rd
    | Ir.Icmp { dst; op; ty; a; b } ->
      let la = use_loc ctx a in
      let lb = use_loc ctx b in
      F.cmp em ~ty ~a:la ~b:lb ~scratch;
      let rd = def_reg ctx dst in
      let l_done = Emitter.fresh_label em in
      F.load em ~dst:rd ~src:(Limm 1l);
      Emitter.branch em (Some op) l_done;
      F.load em ~dst:rd ~src:(Limm 0l);
      Emitter.place em l_done;
      finish_def ctx dst rd
    | Ir.Iinvoke { dst; target; method_index; args; stop; _ } ->
      let tloc = use_loc ctx target in
      let alocs = List.map (use_loc ctx) args in
      let stop_idx, alt_idx = F.invoke em ~target:tloc ~args:alocs ~method_index ~scratch in
      record_stop ctx ~id:stop ~pc_idx:stop_idx ~alt_idx
        ~pushed:(1 + List.length args)
        ~kind:(stop_kind ctx stop) ();
      free_all ctx;
      (match dst with
      | Some d ->
        let rd = def_reg ctx d in
        F.load em ~dst:rd ~src:(Lreg F.retval_reg);
        finish_def ctx d rd
      | None -> ())
    | Ir.Inew { dst; class_index; stop } ->
      syscall_stop ctx ~stop ~args:[ Limm (Int32.of_int class_index) ] ~scratch;
      free_all ctx;
      let rd = def_reg ctx dst in
      F.load em ~dst:rd ~src:(Lreg F.retval_reg);
      finish_def ctx dst rd
    | Ir.Ibuiltin { dst; args; stop; _ } ->
      syscall_stop ctx ~stop ~args:(List.map (use_loc ctx) args) ~scratch;
      free_all ctx;
      (match dst with
      | Some d ->
        let rd = def_reg ctx d in
        F.load em ~dst:rd ~src:(Lreg F.retval_reg);
        finish_def ctx d rd
      | None -> ())
    | Ir.Ivec_get { dst; vec; idx; stop } ->
      let rv = use_reg ctx vec in
      let ri = use_reg ctx idx in
      gen_bounds_check ctx ~rv ~ri ~stop;
      let ra = alloc_reg ctx in
      F.bin em I.Mul ~ty:Ir.Aint ~a:(Lreg ri) ~b:(Limm 4l) ~dst:ra ~scratch;
      F.bin em I.Add ~ty:Ir.Aint ~a:(Lreg ra) ~b:(Lreg rv) ~dst:ra ~scratch;
      let rd = def_reg ctx dst in
      F.load_mem em ~dst:rd ~base:ra ~disp:Layout.vec_elems;
      finish_def ctx dst rd
    | Ir.Ivec_set { vec; idx; src; stop } ->
      let rv = use_reg ctx vec in
      let ri = use_reg ctx idx in
      let rs = use_reg ctx src in
      gen_bounds_check ctx ~rv ~ri ~stop;
      let ra = alloc_reg ctx in
      F.bin em I.Mul ~ty:Ir.Aint ~a:(Lreg ri) ~b:(Limm 4l) ~dst:ra ~scratch;
      F.bin em I.Add ~ty:Ir.Aint ~a:(Lreg ra) ~b:(Lreg rv) ~dst:ra ~scratch;
      F.store_mem em ~src:rs ~base:ra ~disp:Layout.vec_elems
    | Ir.Ivec_len { dst; vec } ->
      let rv = use_reg ctx vec in
      let rd = def_reg ctx dst in
      F.load_mem em ~dst:rd ~base:rv ~disp:Layout.vec_len;
      finish_def ctx dst rd
    | Ir.Imon_enter { stop } ->
      free_all ctx;
      syscall_stop ctx ~stop ~args:[ Lslot (self_off ctx) ] ~scratch;
      free_all ctx
    | Ir.Imon_exit { dequeue_stop; wake_stop } ->
      free_all ctx;
      let info = F.mon_exit em ~self:(Lslot (self_off ctx)) ~scratch in
      record_stop ctx ~id:dequeue_stop ~pc_idx:info.me_dequeue_idx
        ~exit_only:info.me_dequeue_exit_only ~pushed:info.me_dequeue_args
        ~kind:(stop_kind ctx dequeue_stop) ();
      record_stop ctx ~id:wake_stop ~pc_idx:info.me_wake_idx ~pushed:info.me_wake_args
        ~kind:(stop_kind ctx wake_stop) ();
      free_all ctx

  let gen_term ctx (term : Ir.terminator) =
    ctx.protected <- [];
    let em = ctx.em in
    let scratch () = alloc_reg ctx in
    match term with
    | Ir.Tjump l ->
      free_all ctx;
      Emitter.branch em None ctx.labels.(l)
    | Ir.Tcond { c; if_true; if_false } ->
      let lc = use_loc ctx c in
      F.cmp em ~ty:Ir.Aint ~a:lc ~b:(Limm 0l) ~scratch;
      free_all ctx;
      Emitter.branch em (Some I.Ne) ctx.labels.(if_true);
      Emitter.branch em None ctx.labels.(if_false)
    | Ir.Tloop { target; stop } ->
      free_all ctx;
      if Opt.(ctx.level >= O2) && ctx.block_has_call then begin
        (* loop-poll elision: every pass over this back edge already
           crosses a system-call bus stop in the same block, so the poll
           adds no capture point the kernel cannot reach.  The stop stays
           in the table (its state-equivalence point is the back branch)
           but is marked elided: landing here from another instance goes
           through a bridge fragment. *)
        let idx = Emitter.next_index em in
        record_stop ctx ~id:stop ~pc_idx:idx ~pushed:0 ~kind:(stop_kind ctx stop)
          ~elided:true ();
        ctx.edits :=
          {
            Opt.ed_pass = "poll-elide";
            ed_index = idx;
            ed_desc = Printf.sprintf "drop loop poll for stop %d (covered by a \
                                      system-call stop in the same block)" stop;
          }
          :: !(ctx.edits);
        Emitter.branch em None ctx.labels.(target)
      end
      else begin
        let idx = Emitter.emit em (I.Poll stop) in
        record_stop ctx ~id:stop ~pc_idx:idx ~pushed:0 ~kind:(stop_kind ctx stop) ();
        Emitter.branch em None ctx.labels.(target)
      end
    | Ir.Treturn ->
      free_all ctx;
      let result_offset = Option.map (fun v -> var_off ctx v) ctx.ir.Ir.oi_result in
      F.epilogue em ~result_offset

  let compile_op em ~level ~edits ~nmethods ~stops (op_ir : Ir.op_ir)
      (tmpl : Template.op_t) =
    let n_slots = tmpl.Template.ot_nslots in
    let frame_size = F.frame_size ~n_slots ~n_scratch:n_scratch_slots in
    let entry_idx = Emitter.next_index em in
    let n_temps = Array.length op_ir.Ir.oi_temp_types in
    let ctx =
      {
        em;
        tmpl;
        ir = op_ir;
        nmethods;
        n_slots;
        frame_size;
        temps = Array.init n_temps (fun _ -> { in_reg = None; spill = None });
        use_count =
          (let counts = Array.make (max n_temps 1) 0 in
           Array.iter
             (fun (blk : Ir.block) ->
               List.iter
                 (fun i -> List.iter (fun t -> counts.(t) <- counts.(t) + 1) (Ir.uses i))
                 blk.Ir.b_instrs;
               List.iter
                 (fun t -> counts.(t) <- counts.(t) + 1)
                 (Ir.term_uses blk.Ir.b_term))
             op_ir.Ir.oi_blocks;
           counts);
        temp_of_reg = Hashtbl.create 16;
        protected = [];
        stamp = 0;
        last_use = Array.make (max n_temps 1) 0;
        free_spills = List.init n_scratch_slots Fun.id;
        labels = Array.map (fun (b : Ir.block) -> b.Ir.b_label) op_ir.Ir.oi_blocks;
        stops;
        level;
        copt = Opt.(level >= O1);
        edits;
        block_has_call = false;
        var_cache = Hashtbl.create 8;
        cache_of_reg = Hashtbl.create 8;
      }
    in
    (* emitter labels for IR blocks *)
    Array.iteri (fun i _ -> ctx.labels.(i) <- Emitter.fresh_label em) op_ir.Ir.oi_blocks;
    let param_offsets =
      Array.init tmpl.Template.ot_nparams (fun i -> var_off ctx i)
    in
    F.prologue em ~frame_size ~param_offsets;
    Array.iteri
      (fun bi (blk : Ir.block) ->
        Emitter.place em ctx.labels.(bi);
        free_all ctx;
        ctx.block_has_call <- false;
        List.iter (gen_instr ctx) blk.Ir.b_instrs;
        gen_term ctx blk.Ir.b_term)
      op_ir.Ir.oi_blocks;
    let frame =
      {
        Busstop.fr_op = op_ir.Ir.oi_index;
        fr_frame_size = frame_size;
        fr_slot_offsets = Array.init n_slots (fun s -> slot_off ctx s);
        fr_fixed_sp_depth = F.fixed_sp_depth ~frame_size;
      }
    in
    (entry_idx, frame)

  let compile_class_at ?(level = Opt.O0) ~arch ~code_oid (cl : Ir.class_ir)
      (ctmpl : Template.class_t) =
    assert (A.equal_family arch.A.family F.family);
    let em = Emitter.create F.family in
    let nmethods = Array.length cl.Ir.cl_ops in
    let stops = ref [] in
    let edits = ref [] in
    let results =
      Array.map2
        (fun op_ir tmpl -> compile_op em ~level ~edits ~nmethods ~stops op_ir tmpl)
        cl.Ir.cl_ops ctmpl.Template.ct_ops
    in
    (* the optimizer pass pipeline; each pass protects every bus-stop PC,
       alternate PC and method entry, and remaps them afterwards *)
    let apply_pass pass results =
      let protected_idx =
        List.concat_map
          (fun p ->
            p.sp_pc_idx
            ::
            (match p.sp_alt_idx with
            | Some a -> [ a ]
            | None -> []))
          !stops
        @ Array.to_list (Array.map fst results)
      in
      let remap = Emitter.optimize em ~protected_idx ~pass in
      stops :=
        List.map
          (fun p ->
            {
              p with
              sp_pc_idx = remap p.sp_pc_idx;
              sp_alt_idx = Option.map remap p.sp_alt_idx;
            })
          !stops;
      Array.map (fun (entry_idx, frame) -> (remap entry_idx, frame)) results
    in
    let results =
      if Opt.(level >= O1) then
        apply_pass
          (fun ~protected insns ->
            Peephole.optimize ~family:F.family ~protected ~edits insns)
          results
      else results
    in
    let results =
      if Opt.(level >= O2) then
        apply_pass
          (fun ~protected insns ->
            Opt2.optimize ~family:F.family ~protected ~edits insns)
          results
      else results
    in
    let methods =
      Array.map2
        (fun (op_ir : Ir.op_ir) (entry_idx, _) -> (op_ir.Ir.oi_name, entry_idx))
        cl.Ir.cl_ops results
    in
    let insns = Emitter.finalize em in
    let code =
      Isa.Code.make ~inst:(Opt.to_int level) ~arch ~code_oid
        ~class_name:cl.Ir.cl_name ~methods insns
    in
    let offset_of idx =
      if idx >= Array.length code.Isa.Code.offsets then code.Isa.Code.byte_size
      else code.Isa.Code.offsets.(idx)
    in
    let protos = List.sort (fun a b -> compare a.sp_id b.sp_id) !stops in
    let entries =
      Array.of_list
        (List.map
           (fun p ->
             let frame_size =
               let _, frame = results.(p.sp_op) in
               frame.Busstop.fr_frame_size
             in
             {
               Busstop.be_id = p.sp_id;
               be_op = p.sp_op;
               be_pc = offset_of p.sp_pc_idx;
               be_alt_pc = Option.map offset_of p.sp_alt_idx;
               be_exit_only = p.sp_exit_only;
               be_elided = p.sp_elided;
               be_sp_depth =
                 F.fixed_sp_depth ~frame_size + F.arg_push_bytes p.sp_pushed;
               be_pop_bytes = F.arg_push_bytes p.sp_pushed;
               be_kind = p.sp_kind;
             })
           protos)
    in
    let frames = Array.map snd results in
    let table = Busstop.make ~arch_id:arch.A.id ~entries ~frames in
    (code, table, List.rev !edits)
end
