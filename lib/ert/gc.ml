module Mem = Isa.Memory
module L = Emc.Layout
module T = Thread

type stats = {
  gc_live : int;
  gc_swept : int;
  gc_bytes_freed : int;
}

let rec value_root k v acc =
  match (v : Value.t) with
  | Value.Vref oid -> (
    match Kernel.find_object k oid with
    | Some addr -> addr :: acc
    | None -> (
      match Kernel.proxy_of k oid with
      | Some addr -> addr :: acc
      | None -> acc))
  | Value.Vvec (_, xs) -> Array.fold_left (fun acc x -> value_root k x acc) acc xs
  | Value.Vint _ | Value.Vreal _ | Value.Vbool _ | Value.Vstr _ | Value.Vnil -> acc

let suspension_roots k (s : T.suspension) acc =
  match s with
  | Isa.Suspend.Deliver v -> value_root k v acc
  | Isa.Suspend.Complete v ->
    Option.fold ~none:acc ~some:(fun v -> value_root k v acc) v
  | Isa.Suspend.Run | Isa.Suspend.Complete_dequeue _ | Isa.Suspend.Poll
  | Isa.Suspend.Syscall _ | Isa.Suspend.Bottom_return | Isa.Suspend.Halt
  | Isa.Suspend.Trap _ | Isa.Suspend.Fuel -> acc

(* roots carried by the waiting state itself, beyond any frame slot: a
   waiter queued on a monitor keeps the monitor's object alive even when
   no live slot still holds the reference (the entry sequence may have
   consumed it), and sweeping it would leave the wake path reading freed
   memory.  [Awaiting_reply] carries only the machine-independent stop
   id — the pending value lives on the replying node until
   [deliver_result] lands it. *)
let status_roots (st : T.status) acc =
  match st with
  | T.Blocked_monitor { mon_addr; _ } -> mon_addr :: acc
  | T.Parked _ | T.Running | T.Awaiting_reply _ | T.Dead -> acc

let segment_roots k (seg : T.segment) =
  match seg.T.seg_spawn with
  | Some spawn ->
    let acc = value_root k (Value.Vref spawn.T.si_target) [] in
    let acc = List.fold_left (fun acc v -> value_root k v acc) acc spawn.T.si_args in
    status_roots seg.T.seg_status acc
  | None ->
    (* every frame's non-nil live pointers, youngest frame first *)
    let pointer es raw acc =
      if Emc.Ir.is_pointer_type es.Emc.Template.es_type && raw <> 0l then
        Int32.to_int raw :: acc
      else acc
    in
    let acc =
      List.fold_right
        (fun fr acc -> Frame_walk.fold_live k fr pointer acc)
        (Frame_walk.walk k seg) []
    in
    (match seg.T.seg_status with
    | T.Parked s -> suspension_roots k s acc
    | T.Running -> raise (Kernel.Runtime_error "gc: segment is running")
    | T.Blocked_monitor _ | T.Awaiting_reply _ | T.Dead ->
      status_roots seg.T.seg_status acc)

(* root-thread results already delivered but not yet read by the
   embedding harness: the value may still name local blocks *)
let harness_result_roots k acc =
  let acc = ref acc in
  Kernel.iter_root_results k (fun _tid v ->
      match v with
      | Some v -> acc := value_root k v !acc
      | None -> ());
  !acc

let field_pointers k addr =
  if Kernel.is_vector_block k addr then Kernel.vector_pointer_elements k addr
  else if not (Kernel.is_resident k addr) then []
  else begin
    let class_index = Kernel.class_of_object k addr in
    let lc = Kernel.loaded_class k class_index in
    let fields = lc.Kernel.lc_class.Emc.Compile.cc_template.Emc.Template.ct_fields in
    let mem = Kernel.mem k in
    Array.to_list fields
    |> List.mapi (fun i (_, ty) -> (i, ty))
    |> List.filter_map (fun (i, ty) ->
           if Emc.Ir.is_pointer_type ty then
             (* unsigned read: a signed fold of a high-bit address would
                never match a block and the mark would be missed *)
             let a = Mem.load32_bits mem (addr + L.field_offset i) in
             if a = 0 then None else Some a
           else None)
  end

let extra_root_addrs k ~extra_roots ~extra_addrs =
  List.fold_left
    (fun acc oid ->
      match Kernel.find_object k oid with
      | Some addr -> addr :: acc
      | None -> (
        match Kernel.proxy_of k oid with
        | Some addr -> addr :: acc
        | None -> acc))
    extra_addrs extra_roots

let collect ?(extra_roots = []) ?(extra_addrs = []) k =
  let marked = Hashtbl.create 64 in
  let known = Hashtbl.create 64 in
  Kernel.iter_blocks k (fun ~addr ~size:_ ~kind:_ -> Hashtbl.replace known addr ());
  let worklist = ref [] in
  let mark addr =
    if Hashtbl.mem known addr && not (Hashtbl.mem marked addr) then begin
      Hashtbl.replace marked addr ();
      worklist := addr :: !worklist
    end
  in
  (* roots: suspended thread state (via the bus-stop templates) and the
     code objects' string literals *)
  List.iter (fun seg -> List.iter mark (segment_roots k seg)) (Kernel.segments k);
  List.iter mark (Kernel.string_literal_addrs k);
  List.iter mark (extra_root_addrs k ~extra_roots ~extra_addrs);
  List.iter mark (harness_result_roots k []);
  (* trace *)
  let rec drain () =
    match !worklist with
    | [] -> ()
    | addr :: rest ->
      worklist := rest;
      List.iter mark (field_pointers k addr);
      drain ()
  in
  drain ();
  (* sweep *)
  let to_free = ref [] in
  let freed_bytes = ref 0 in
  Kernel.iter_blocks k (fun ~addr ~size ~kind:_ ->
      if not (Hashtbl.mem marked addr) then begin
        to_free := addr :: !to_free;
        freed_bytes := !freed_bytes + size
      end);
  List.iter (Kernel.free_block k) !to_free;
  {
    gc_live = Hashtbl.length marked;
    gc_swept = List.length !to_free;
    gc_bytes_freed = !freed_bytes;
  }

(* Incremental tri-color collection ----------------------------------------

   Snapshot-at-beginning over an array-backed color map: [start] freezes
   the block population (sorted address array + color byte per block) and
   scans every root in the first increment; after that, [step ~budget]
   marks a bounded number of pointer slots per call, and finally sweeps
   the snapshot a bounded number of blocks per call.  Soundness between
   increments rests on three rules:

   - a combined write barrier on every 32-bit store greys both the
     overwritten word (Yuasa: a snapshot-reachable pointer cannot be
     hidden by overwriting its last memory copy) and the stored word
     (Dijkstra: a pointer conjured from outside the snapshot graph —
     a reused proxy, a migration landing — is caught the moment it is
     written);
   - blocks allocated after [start] are not in the snapshot, so the
     sweep can never free them (allocate-black);
   - addresses that reach registers without a store ([ensure_ref]
     results, spawn targets) are grafted grey through the kernel hook.

   During the sweep phase no new grey can be produced (everything
   reachable is black); a barrier or graft hit on a still-white block —
   an address conjured mid-sweep for a block the snapshot proved dead,
   e.g. [ensure_ref] reusing a dying proxy — resurrects it and its
   not-yet-swept white descendants instead of freeing them, deferring
   their fate to the next cycle. *)

type phase = Proots | Pmark | Psweep

let phase_name = function
  | Proots -> "gc_roots"
  | Pmark -> "gc_mark"
  | Psweep -> "gc_sweep"

type cycle = {
  snap : int array;  (* block addresses at cycle start, ascending *)
  snap_sizes : int array;
  index : (int, int) Hashtbl.t;  (* address -> snapshot position *)
  color : Bytes.t;  (* 0 white, 1 grey, 2 black *)
  mutable grey : (int * int) list;  (* (snapshot position, field cursor) *)
  mutable cphase : phase;
  mutable sweep_cursor : int;
  mutable live : int;
  mutable swept : int;
  mutable bytes_freed : int;
  cextra_roots : Oid.t list;
  cextra_addrs : int list;
}

type progress =
  | Step_more of { scanned : int; phase : phase }
  | Step_done of { scanned : int; stats : stats }

let white = 0
let grey_c = 1
let black = 2

(* resurrect a white block touched during the sweep: blacken it and its
   not-yet-swept white descendants (transitively) so no block the
   mutator can now reach is freed this cycle *)
let rec resurrect cy k i =
  if Bytes.get_uint8 cy.color i = white && i >= cy.sweep_cursor then begin
    Bytes.set_uint8 cy.color i black;
    cy.live <- cy.live + 1;
    List.iter
      (fun a ->
        match Hashtbl.find_opt cy.index a with
        | Some j -> resurrect cy k j
        | None -> ())
      (field_pointers k cy.snap.(i))
  end

let touch cy k addr =
  match Hashtbl.find_opt cy.index addr with
  | None -> ()  (* allocated after the snapshot: allocate-black *)
  | Some i -> (
    match cy.cphase with
    | Proots | Pmark ->
      if Bytes.get_uint8 cy.color i = white then begin
        Bytes.set_uint8 cy.color i grey_c;
        cy.live <- cy.live + 1;
        cy.grey <- (i, 0) :: cy.grey
      end
    | Psweep -> resurrect cy k i)

let detach cy k =
  ignore cy;
  Mem.clear_store_barrier (Kernel.mem k);
  Kernel.set_on_ref_graft k None

let start ?(extra_roots = []) ?(extra_addrs = []) k =
  let blocks = ref [] in
  Kernel.iter_blocks k (fun ~addr ~size ~kind:_ -> blocks := (addr, size) :: !blocks);
  let blocks = List.sort (fun (a, _) (b, _) -> compare a b) !blocks in
  let n = List.length blocks in
  let snap = Array.make n 0 and snap_sizes = Array.make n 0 in
  List.iteri
    (fun i (addr, size) ->
      snap.(i) <- addr;
      snap_sizes.(i) <- size)
    blocks;
  let index = Hashtbl.create (max 16 n) in
  Array.iteri (fun i addr -> Hashtbl.replace index addr i) snap;
  let cy =
    {
      snap;
      snap_sizes;
      index;
      color = Bytes.make n (Char.chr white);
      grey = [];
      cphase = Proots;
      sweep_cursor = 0;
      live = 0;
      swept = 0;
      bytes_freed = 0;
      cextra_roots = extra_roots;
      cextra_addrs = extra_addrs;
    }
  in
  Mem.set_store_barrier (Kernel.mem k) (fun old_bits new_bits ->
      touch cy k old_bits;
      touch cy k new_bits);
  Kernel.set_on_ref_graft k (Some (fun addr -> touch cy k addr));
  cy

let abort cy k = detach cy k

(* migration send-off: the departing segment's roots may differ from
   their snapshot-time values (frames mutate through barriered stores,
   so this is belt-and-braces, but greying is always sound and it is
   deterministic), and after capture the segment is gone from the root
   set entirely.  Grey them before the capture runs. *)
let grey_segment cy k seg =
  match seg.T.seg_status with
  | T.Running -> ()
  | _ -> List.iter (fun a -> touch cy k a) (segment_roots k seg)

let grey_addr cy k addr = touch cy k addr

(* scan up to [fuel] pointer slots of snapshot block [i] starting at
   field [cursor]; returns (slots scanned, remaining cursor if the block
   is not finished) *)
let scan_block cy k i ~cursor ~fuel =
  let addr = cy.snap.(i) in
  let mem = Kernel.mem k in
  if Kernel.is_vector_block k addr then begin
    let kind = Mem.load32_bits mem (addr + L.vec_kind) in
    if kind = L.kind_string || kind = L.kind_ref || kind = L.kind_vec then begin
      let len = Mem.load32_bits mem (addr + L.vec_len) in
      let stop = min len (cursor + fuel) in
      for j = cursor to stop - 1 do
        let a = Mem.load32_bits mem (addr + L.vec_elems + (4 * j)) in
        if a <> 0 then touch cy k a
      done;
      (max 1 (stop - cursor), if stop >= len then None else Some stop)
    end
    else (1, None)
  end
  else if not (Kernel.is_resident k addr) then (1, None)
  else begin
    let class_index = Kernel.class_of_object k addr in
    let lc = Kernel.loaded_class k class_index in
    let fields = lc.Kernel.lc_class.Emc.Compile.cc_template.Emc.Template.ct_fields in
    let nf = Array.length fields in
    let stop = min nf (cursor + fuel) in
    for j = cursor to stop - 1 do
      let _, ty = fields.(j) in
      if Emc.Ir.is_pointer_type ty then begin
        let a = Mem.load32_bits mem (addr + L.field_offset j) in
        if a <> 0 then touch cy k a
      end
    done;
    (max 1 (stop - cursor), if stop >= nf then None else Some stop)
  end

(* the whole root set is scanned in one increment: root volume is
   proportional to suspended segments and pinned handles, not heap size,
   and an atomic root snapshot is what makes snapshot-at-beginning
   marking sound without a register barrier *)
let scan_roots cy k =
  let segs =
    List.sort
      (fun a b -> compare a.T.seg_id b.T.seg_id)
      (Kernel.segments k)
  in
  let roots =
    List.concat_map (fun seg -> segment_roots k seg) segs
    @ Kernel.string_literal_addrs k
    @ extra_root_addrs k ~extra_roots:cy.cextra_roots ~extra_addrs:cy.cextra_addrs
    @ harness_result_roots k []
  in
  List.iter (fun a -> touch cy k a) roots;
  List.length roots

let finish cy k ~scanned =
  detach cy k;
  Step_done
    {
      scanned;
      stats =
        { gc_live = cy.live; gc_swept = cy.swept; gc_bytes_freed = cy.bytes_freed };
    }

let step cy k ~budget =
  let budget = max 1 budget in
  let scanned = ref 0 in
  let result = ref None in
  while !result = None do
    if !scanned >= budget then result := Some (Step_more { scanned = !scanned; phase = cy.cphase })
    else
      match cy.cphase with
      | Proots ->
        scanned := !scanned + max 1 (scan_roots cy k);
        cy.cphase <- Pmark
      | Pmark -> (
        match cy.grey with
        | [] ->
          cy.cphase <- Psweep;
          cy.sweep_cursor <- 0
        | (i, cursor) :: rest ->
          cy.grey <- rest;
          let used, remaining = scan_block cy k i ~cursor ~fuel:(budget - !scanned) in
          (match remaining with
          | None -> Bytes.set_uint8 cy.color i black
          | Some c -> cy.grey <- (i, c) :: cy.grey);
          scanned := !scanned + used)
      | Psweep ->
        if cy.sweep_cursor >= Array.length cy.snap then
          result := Some (finish cy k ~scanned:!scanned)
        else begin
          let i = cy.sweep_cursor in
          cy.sweep_cursor <- i + 1;
          if Bytes.get_uint8 cy.color i = white then begin
            Kernel.free_block k cy.snap.(i);
            cy.swept <- cy.swept + 1;
            cy.bytes_freed <- cy.bytes_freed + cy.snap_sizes.(i)
          end;
          incr scanned
        end
  done;
  Option.get !result
