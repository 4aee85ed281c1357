module T = Typecheck

type builder = {
  blocks : (Ir.label, Ir.block) Hashtbl.t;
  mutable cur_label : Ir.label;
  mutable cur_instrs : Ir.instr list;  (* reversed *)
  mutable cur_open : bool;
  mutable next_label : int;
  mutable temp_types : Ast.typ list;  (* reversed *)
  mutable n_temps : int;
  mutable stops : Ir.stop_rec list;  (* reversed *)
  stop_counter : int ref;  (* class-global *)
  op_index : int;
  strings : (string, int) Hashtbl.t;
  string_list : string list ref;  (* reversed, class-global *)
  var_of_param : int array;  (* declared param index -> var id *)
  var_of_local : int array;
  var_of_result : int option;
  monitored : bool;
  mutable loop_exits : Ir.label list;
  formats : Isa.Float_format.t list;  (* the targets' float formats *)
}

let fresh_label b =
  let l = b.next_label in
  b.next_label <- l + 1;
  l

let fresh_temp b ty =
  let t = b.n_temps in
  b.n_temps <- t + 1;
  b.temp_types <- ty :: b.temp_types;
  t

let fresh_stop b kind =
  let id = !(b.stop_counter) in
  incr b.stop_counter;
  let rec_ = { Ir.sr_id = id; sr_op = b.op_index; sr_kind = kind; sr_live = [] } in
  b.stops <- rec_ :: b.stops;
  id

let emit b i =
  assert b.cur_open;
  b.cur_instrs <- i :: b.cur_instrs

let close b term =
  assert b.cur_open;
  Hashtbl.replace b.blocks b.cur_label
    { Ir.b_label = b.cur_label; b_instrs = List.rev b.cur_instrs; b_term = term };
  b.cur_open <- false

let start b label =
  assert (not b.cur_open);
  b.cur_label <- label;
  b.cur_instrs <- [];
  b.cur_open <- true

let string_index b s =
  match Hashtbl.find_opt b.strings s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length b.strings in
    Hashtbl.replace b.strings s i;
    b.string_list := s :: !(b.string_list);
    i

let var_of_ref b = function
  | T.Vparam i -> b.var_of_param.(i)
  | T.Vlocal i -> b.var_of_local.(i)
  | T.Vresult -> (
    match b.var_of_result with
    | Some v -> v
    | None -> assert false)
  | T.Vfield _ -> assert false

let ast_arith = function
  | Ast.Badd -> Isa.Insn.Add
  | Ast.Bsub -> Isa.Insn.Sub
  | Ast.Bmul -> Isa.Insn.Mul
  | Ast.Bdiv -> Isa.Insn.Div
  | Ast.Bmod -> Isa.Insn.Mod
  | Ast.Beq | Ast.Bne | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge | Ast.Band | Ast.Bor ->
    assert false

let ast_cmp = function
  | Ast.Beq -> Isa.Insn.Eq
  | Ast.Bne -> Isa.Insn.Ne
  | Ast.Blt -> Isa.Insn.Lt
  | Ast.Ble -> Isa.Insn.Le
  | Ast.Bgt -> Isa.Insn.Gt
  | Ast.Bge -> Isa.Insn.Ge
  | Ast.Badd | Ast.Bsub | Ast.Bmul | Ast.Bdiv | Ast.Bmod | Ast.Band | Ast.Bor ->
    assert false

let arith_ty_of = function
  | Ast.Treal -> Ir.Areal
  | Ast.Tint | Ast.Tbool | Ast.Tstring | Ast.Tobj _ | Ast.Tvec _ | Ast.Tnil -> Ir.Aint

let rec lower_expr b (e : T.texpr) : Ir.temp =
  match e.T.te_d with
  | T.TEint v ->
    let t = fresh_temp b Ast.Tint in
    emit b (Ir.Iconst_int (t, v));
    t
  | T.TEreal v ->
    (* the code generator encodes the literal into an instruction, so a
       value a target's format cannot hold is the program's fault *)
    List.iter
      (fun fmt ->
        match Isa.Float_format.encode fmt v with
        | _ -> ()
        | exception Isa.Float_format.Reserved_operand m ->
          Diag.error e.T.te_pos "real literal %g has no %a representation (%s)" v
            Isa.Float_format.pp fmt m)
      b.formats;
    let t = fresh_temp b Ast.Treal in
    emit b (Ir.Iconst_real (t, v));
    t
  | T.TEbool v ->
    let t = fresh_temp b Ast.Tbool in
    emit b (Ir.Iconst_bool (t, v));
    t
  | T.TEstr s ->
    let t = fresh_temp b Ast.Tstring in
    emit b (Ir.Iconst_str (t, string_index b s));
    t
  | T.TEnil ->
    let t = fresh_temp b Ast.Tnil in
    emit b (Ir.Iconst_nil t);
    t
  | T.TEself ->
    let t = fresh_temp b e.T.te_t in
    emit b (Ir.Iload_var (t, 0));
    t
  | T.TEvar (T.Vfield i, _) ->
    let t = fresh_temp b e.T.te_t in
    emit b (Ir.Iload_field (t, i));
    t
  | T.TEvar (vr, _) ->
    let t = fresh_temp b e.T.te_t in
    emit b (Ir.Iload_var (t, var_of_ref b vr));
    t
  | T.TEcvt_int_to_real x ->
    let tx = lower_expr b x in
    let t = fresh_temp b Ast.Treal in
    emit b (Ir.Icvt_int_real { dst = t; a = tx });
    t
  | T.TEun (Ast.Uneg, x) ->
    let tx = lower_expr b x in
    let t = fresh_temp b e.T.te_t in
    emit b (Ir.Ineg { dst = t; ty = arith_ty_of e.T.te_t; a = tx });
    t
  | T.TEun (Ast.Unot, x) ->
    let tx = lower_expr b x in
    let t = fresh_temp b Ast.Tbool in
    emit b (Ir.Inot { dst = t; a = tx });
    t
  | T.TEbin ((Ast.Band | Ast.Bor) as op, x, y) -> lower_short_circuit b op x y
  | T.TEbin (Ast.Badd, x, y) when Ast.typ_equal x.T.te_t Ast.Tstring ->
    lower_builtin b Ir.Bsconcat [ x; y ] (Some Ast.Tstring)
  | T.TEbin ((Ast.Beq | Ast.Bne) as op, x, y) when Ast.typ_equal x.T.te_t Ast.Tstring ->
    let t = lower_builtin b Ir.Bseq [ x; y ] (Some Ast.Tbool) in
    if op = Ast.Beq then t
    else begin
      let t' = fresh_temp b Ast.Tbool in
      emit b (Ir.Inot { dst = t'; a = t });
      t'
    end
  | T.TEbin ((Ast.Badd | Ast.Bsub | Ast.Bmul | Ast.Bdiv | Ast.Bmod) as op, x, y) ->
    let tx = lower_expr b x in
    let ty_ = lower_expr b y in
    let t = fresh_temp b e.T.te_t in
    emit b
      (Ir.Ibin { dst = t; op = ast_arith op; ty = arith_ty_of e.T.te_t; a = tx; b = ty_ });
    t
  | T.TEbin ((Ast.Beq | Ast.Bne | Ast.Blt | Ast.Ble | Ast.Bgt | Ast.Bge) as op, x, y) ->
    let tx = lower_expr b x in
    let ty_ = lower_expr b y in
    let t = fresh_temp b Ast.Tbool in
    emit b
      (Ir.Icmp { dst = t; op = ast_cmp op; ty = arith_ty_of x.T.te_t; a = tx; b = ty_ });
    t
  | T.TEinvoke (target, ci, msig, args) ->
    let ttarget = lower_expr b target in
    let targs = List.map (lower_expr b) args in
    let rt = e.T.te_t in
    let dst = fresh_temp b rt in
    let stop =
      fresh_stop b
        (Ir.Sk_invoke
           {
             argc = List.length targs;
             has_result = msig.T.m_result <> None;
             callee_class = ci.T.ci_index;
             callee_method = msig.T.m_index;
           })
    in
    emit b
      (Ir.Iinvoke
         {
           dst = Some dst;
           target = ttarget;
           class_index = ci.T.ci_index;
           method_index = msig.T.m_index;
           method_name = msig.T.m_name;
           args = targs;
           stop;
         });
    dst
  | T.TEnew (ci, args) ->
    let dst = fresh_temp b e.T.te_t in
    let stop = fresh_stop b (Ir.Sk_new { class_index = ci.T.ci_index }) in
    emit b (Ir.Inew { dst; class_index = ci.T.ci_index; stop });
    if ci.T.ci_has_initially then begin
      let init =
        match
          Array.find_opt (fun m -> String.equal m.T.m_name "initially") ci.T.ci_methods
        with
        | Some m -> m
        | None -> assert false
      in
      let targs = List.map (lower_expr b) args in
      let stop =
        fresh_stop b
          (Ir.Sk_invoke
             {
               argc = List.length targs;
               has_result = false;
               callee_class = ci.T.ci_index;
               callee_method = init.T.m_index;
             })
      in
      emit b
        (Ir.Iinvoke
           {
             dst = None;
             target = dst;
             class_index = ci.T.ci_index;
             method_index = init.T.m_index;
             method_name = "initially";
             args = targs;
             stop;
           })
    end;
    if ci.T.ci_has_process then begin
      let stop =
        fresh_stop b
          (Ir.Sk_builtin { bi = Ir.Bstart_process; argc = 1; has_result = false })
      in
      emit b (Ir.Ibuiltin { dst = None; bi = Ir.Bstart_process; args = [ dst ]; stop })
    end;
    dst
  | T.TEvec_new (elem_ty, len) ->
    let tk = fresh_temp b Ast.Tint in
    emit b (Ir.Iconst_int (tk, Int32.of_int (Layout.kind_of_typ elem_ty)));
    let tl = lower_expr b len in
    let dst = fresh_temp b (Ast.Tvec elem_ty) in
    let stop =
      fresh_stop b (Ir.Sk_builtin { bi = Ir.Bvec_new; argc = 2; has_result = true })
    in
    emit b (Ir.Ibuiltin { dst = Some dst; bi = Ir.Bvec_new; args = [ tk; tl ]; stop });
    dst
  | T.TEindex (vec, idx) ->
    let tv = lower_expr b vec in
    let ti = lower_expr b idx in
    let dst = fresh_temp b e.T.te_t in
    let stop =
      fresh_stop b (Ir.Sk_builtin { bi = Ir.Bbounds; argc = 1; has_result = false })
    in
    emit b (Ir.Ivec_get { dst; vec = tv; idx = ti; stop });
    dst
  | T.TEveclen vec ->
    let tv = lower_expr b vec in
    let dst = fresh_temp b Ast.Tint in
    emit b (Ir.Ivec_len { dst; vec = tv });
    dst
  | T.TElocate x -> lower_builtin b Ir.Blocate [ x ] (Some Ast.Tint)
  | T.TEthisnode -> lower_builtin b Ir.Bthisnode [] (Some Ast.Tint)
  | T.TEtimenow -> lower_builtin b Ir.Btimenow [] (Some Ast.Tint)

and lower_builtin b bi args result_ty : Ir.temp =
  let targs = List.map (lower_expr b) args in
  let dst = Option.map (fun ty -> fresh_temp b ty) result_ty in
  let stop =
    fresh_stop b
      (Ir.Sk_builtin { bi; argc = List.length targs; has_result = dst <> None })
  in
  emit b (Ir.Ibuiltin { dst; bi; args = targs; stop });
  match dst with
  | Some t -> t
  | None -> -1

and lower_short_circuit b op x y : Ir.temp =
  let result = fresh_temp b Ast.Tbool in
  let tx = lower_expr b x in
  let l_rhs = fresh_label b and l_short = fresh_label b and l_join = fresh_label b in
  (match op with
  | Ast.Band -> close b (Ir.Tcond { c = tx; if_true = l_rhs; if_false = l_short })
  | Ast.Bor -> close b (Ir.Tcond { c = tx; if_true = l_short; if_false = l_rhs })
  | _ -> assert false);
  start b l_rhs;
  let ty_ = lower_expr b y in
  emit b (Ir.Icopy (result, ty_));
  close b (Ir.Tjump l_join);
  start b l_short;
  emit b (Ir.Iconst_bool (result, op = Ast.Bor));
  close b (Ir.Tjump l_join);
  start b l_join;
  result

let emit_monitor_exit b =
  let dequeue_stop = fresh_stop b Ir.Sk_mon_dequeue in
  let wake_stop = fresh_stop b Ir.Sk_mon_wake in
  emit b (Ir.Imon_exit { dequeue_stop; wake_stop })

let rec lower_stmt b (s : T.tstmt) =
  match s with
  | T.TSdecl (i, e) ->
    let t = lower_expr b e in
    emit b (Ir.Istore_var (b.var_of_local.(i), t))
  | T.TSassign (T.Vfield i, e) ->
    let t = lower_expr b e in
    emit b (Ir.Istore_field (i, t))
  | T.TSassign (vr, e) ->
    let t = lower_expr b e in
    emit b (Ir.Istore_var (var_of_ref b vr, t))
  | T.TSindex_assign (vec, idx, e) ->
    let tv = lower_expr b vec in
    let ti = lower_expr b idx in
    let ts = lower_expr b e in
    let stop =
      fresh_stop b (Ir.Sk_builtin { bi = Ir.Bbounds; argc = 1; has_result = false })
    in
    emit b (Ir.Ivec_set { vec = tv; idx = ti; src = ts; stop })
  | T.TSexpr e -> (
    match e.T.te_d with
    | T.TEinvoke (target, ci, msig, args) ->
      (* invocation for effect: no destination temp *)
      let ttarget = lower_expr b target in
      let targs = List.map (lower_expr b) args in
      let stop =
        fresh_stop b
          (Ir.Sk_invoke
             {
               argc = List.length targs;
               has_result = msig.T.m_result <> None;
               callee_class = ci.T.ci_index;
               callee_method = msig.T.m_index;
             })
      in
      emit b
        (Ir.Iinvoke
           {
             dst = None;
             target = ttarget;
             class_index = ci.T.ci_index;
             method_index = msig.T.m_index;
             method_name = msig.T.m_name;
             args = targs;
             stop;
           })
    | _ -> ignore (lower_expr b e))
  | T.TSif (arms, els) ->
    let l_join = fresh_label b in
    let rec go = function
      | [] ->
        List.iter (lower_stmt b) els;
        close b (Ir.Tjump l_join)
      | (cond, body) :: rest ->
        let tc = lower_expr b cond in
        let l_then = fresh_label b and l_else = fresh_label b in
        close b (Ir.Tcond { c = tc; if_true = l_then; if_false = l_else });
        start b l_then;
        List.iter (lower_stmt b) body;
        close b (Ir.Tjump l_join);
        start b l_else;
        go rest
    in
    go arms;
    start b l_join
  | T.TSloop body ->
    let l_head = fresh_label b and l_exit = fresh_label b in
    close b (Ir.Tjump l_head);
    start b l_head;
    b.loop_exits <- l_exit :: b.loop_exits;
    List.iter (lower_stmt b) body;
    b.loop_exits <- List.tl b.loop_exits;
    let stop = fresh_stop b Ir.Sk_loop in
    close b (Ir.Tloop { target = l_head; stop });
    start b l_exit
  | T.TSexit cond -> (
    let l_exit =
      match b.loop_exits with
      | l :: _ -> l
      | [] -> assert false
    in
    match cond with
    | None ->
      close b (Ir.Tjump l_exit);
      start b (fresh_label b) (* unreachable continuation *)
    | Some c ->
      let tc = lower_expr b c in
      let l_cont = fresh_label b in
      close b (Ir.Tcond { c = tc; if_true = l_exit; if_false = l_cont });
      start b l_cont)
  | T.TSreturn ->
    if b.monitored then emit_monitor_exit b;
    close b Ir.Treturn;
    start b (fresh_label b)
  | T.TSmove (obj, node) -> ignore (lower_builtin b Ir.Bmove [ obj; node ] None)
  | T.TSwait (cond, timeout) -> (
    let tself = fresh_temp b (Ast.Tobj "<self>") in
    emit b (Ir.Iload_var (tself, 0));
    let tidx = fresh_temp b Ast.Tint in
    emit b (Ir.Iconst_int (tidx, Int32.of_int cond));
    match timeout with
    | None ->
      let stop =
        fresh_stop b
          (Ir.Sk_builtin { bi = Ir.Bcond_wait; argc = 2; has_result = false })
      in
      emit b
        (Ir.Ibuiltin { dst = None; bi = Ir.Bcond_wait; args = [ tself; tidx ]; stop })
    | Some te ->
      let ttimeout = lower_expr b te in
      let stop =
        fresh_stop b
          (Ir.Sk_builtin { bi = Ir.Bcond_wait_timed; argc = 3; has_result = false })
      in
      emit b
        (Ir.Ibuiltin
           {
             dst = None;
             bi = Ir.Bcond_wait_timed;
             args = [ tself; tidx; ttimeout ];
             stop;
           }))
  | T.TSnotifyall cond ->
    let tself = fresh_temp b (Ast.Tobj "<self>") in
    emit b (Ir.Iload_var (tself, 0));
    let tidx = fresh_temp b Ast.Tint in
    emit b (Ir.Iconst_int (tidx, Int32.of_int cond));
    let stop =
      fresh_stop b
        (Ir.Sk_builtin { bi = Ir.Bcond_notify_all; argc = 2; has_result = false })
    in
    emit b
      (Ir.Ibuiltin
         { dst = None; bi = Ir.Bcond_notify_all; args = [ tself; tidx ]; stop })
  | T.TSsignal cond ->
    let tself = fresh_temp b (Ast.Tobj "<self>") in
    emit b (Ir.Iload_var (tself, 0));
    let tidx = fresh_temp b Ast.Tint in
    emit b (Ir.Iconst_int (tidx, Int32.of_int cond));
    let stop =
      fresh_stop b
        (Ir.Sk_builtin { bi = Ir.Bcond_signal; argc = 2; has_result = false })
    in
    emit b
      (Ir.Ibuiltin { dst = None; bi = Ir.Bcond_signal; args = [ tself; tidx ]; stop })
  | T.TSprint args ->
    List.iter
      (fun (a : T.texpr) ->
        let bi =
          match a.T.te_t with
          | Ast.Tint -> Ir.Bprint_int
          | Ast.Treal -> Ir.Bprint_real
          | Ast.Tbool -> Ir.Bprint_bool
          | Ast.Tstring -> Ir.Bprint_str
          | Ast.Tobj _ | Ast.Tvec _ | Ast.Tnil -> Ir.Bprint_ref
        in
        ignore (lower_builtin b bi [ a ] None))
      args;
    ignore (lower_builtin b Ir.Bprint_nl [] None)

let lower_op ~formats ~stop_counter ~strings ~string_list op_index (top : T.top) :
    Ir.op_ir =
  let msig = top.T.t_sig in
  (* variable table: self, params, result, locals *)
  let vars = ref [] in
  let add v = vars := v :: !vars in
  add { Ir.vd_name = "self"; vd_type = Ast.Tobj "<self>"; vd_kind = Ir.Kself };
  List.iteri
    (fun i (n, t) -> add { Ir.vd_name = n; vd_type = t; vd_kind = Ir.Kparam i })
    msig.T.m_params;
  let nparams = 1 + List.length msig.T.m_params in
  let result_var =
    match msig.T.m_result with
    | Some t ->
      add { Ir.vd_name = "<result>"; vd_type = t; vd_kind = Ir.Kresult };
      Some (nparams)
    | None -> None
  in
  let local_base = nparams + if result_var = None then 0 else 1 in
  Array.iteri
    (fun i (n, t) -> add { Ir.vd_name = n; vd_type = t; vd_kind = Ir.Klocal i })
    top.T.t_locals;
  let b =
    {
      blocks = Hashtbl.create 16;
      cur_label = 0;
      cur_instrs = [];
      cur_open = false;
      next_label = 0;
      temp_types = [];
      n_temps = 0;
      stops = [];
      stop_counter;
      op_index;
      strings;
      string_list;
      var_of_param = Array.init (List.length msig.T.m_params) (fun i -> i + 1);
      var_of_local = Array.init (Array.length top.T.t_locals) (fun i -> local_base + i);
      var_of_result = result_var;
      monitored = msig.T.m_monitored;
      loop_exits = [];
      formats;
    }
  in
  let entry = fresh_label b in
  start b entry;
  if msig.T.m_monitored then begin
    let stop = fresh_stop b Ir.Sk_mon_enter in
    emit b (Ir.Imon_enter { stop })
  end;
  List.iter (lower_stmt b) top.T.t_body;
  if b.cur_open then begin
    if msig.T.m_monitored then emit_monitor_exit b;
    close b Ir.Treturn
  end;
  (* materialise the block array; labels without a placed block are
     unreachable continuations that were never started *)
  let blocks =
    Array.init b.next_label (fun l ->
        match Hashtbl.find_opt b.blocks l with
        | Some blk -> blk
        | None -> { Ir.b_label = l; b_instrs = []; b_term = Ir.Treturn })
  in
  {
    Ir.oi_name = msig.T.m_name;
    oi_index = op_index;
    oi_monitored = msig.T.m_monitored;
    oi_vars = Array.of_list (List.rev !vars);
    oi_nparams = nparams;
    oi_result = result_var;
    oi_temp_types = Array.of_list (List.rev b.temp_types);
    oi_blocks = blocks;
    oi_stops = Array.of_list (List.rev b.stops);
  }

let lower_class ~formats (tc : T.tclass) : Ir.class_ir =
  let ci = tc.T.tc_info in
  let stop_counter = ref 0 in
  let strings = Hashtbl.create 16 in
  let string_list = ref [] in
  let ops =
    Array.mapi
      (fun i top -> lower_op ~formats ~stop_counter ~strings ~string_list i top)
      tc.T.tc_ops
  in
  let field_init (e : T.texpr) =
    match e.T.te_d with
    | T.TEint v -> Ir.Fint v
    | T.TEreal v -> Ir.Freal v
    | T.TEbool v -> Ir.Fbool v
    | T.TEstr v -> Ir.Fstr v
    | T.TEnil -> Ir.Fnil
    | T.TEcvt_int_to_real { T.te_d = T.TEint v; _ } -> Ir.Freal (Int32.to_float v)
    | _ -> assert false (* the typechecker restricts initialisers to literals *)
  in
  {
    Ir.cl_name = ci.T.ci_name;
    cl_index = ci.T.ci_index;
    cl_fields = ci.T.ci_fields;
    cl_attached = ci.T.ci_attached;
    cl_field_inits = Array.map field_init tc.T.tc_field_inits;
    cl_conditions = ci.T.ci_conditions;
    cl_strings = Array.of_list (List.rev !string_list);
    cl_ops = ops;
    cl_nstops = !stop_counter;
    cl_has_initially = ci.T.ci_has_initially;
  }

let lower_program ~name ~formats (tp : T.tprog) : Ir.program_ir =
  { Ir.pr_name = name; pr_classes = Array.map (lower_class ~formats) tp.T.tp_classes }
