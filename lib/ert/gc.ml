module Mem = Isa.Memory
module L = Emc.Layout
module T = Thread

type stats = {
  gc_live : int;
  gc_swept : int;
  gc_bytes_freed : int;
}

(* Each root function folds [f] over the block addresses it finds, so
   the cycle touches each root as it is found, with no list of them. *)

let oid_root k f oid acc =
  match Kernel.ref_addr k oid with
  | 0 -> acc
  | addr -> f addr acc

let rec value_root k f v acc =
  match (v : Value.t) with
  | Value.Vref oid -> oid_root k f oid acc
  | Value.Vvec (_, xs) -> Array.fold_left (fun acc x -> value_root k f x acc) acc xs
  | Value.Vint _ | Value.Vreal _ | Value.Vbool _ | Value.Vstr _ | Value.Vnil -> acc

let suspension_roots k f (s : T.suspension) acc =
  match s with
  | Isa.Suspend.Deliver v -> value_root k f v acc
  | Isa.Suspend.Complete v ->
    Option.fold ~none:acc ~some:(fun v -> value_root k f v acc) v
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
let status_roots f (st : T.status) acc =
  match st with
  | T.Blocked_monitor { mon_addr; _ } -> f mon_addr acc
  | T.Parked _ | T.Running | T.Awaiting_reply _ | T.Dead -> acc

(* the block addresses a suspended segment keeps live: frame slots via
   the bus-stop templates, suspension values and monitor-waiter state,
   or, for a never-dispatched segment, its spawn target and arguments *)
let fold_segment_roots k f (seg : T.segment) acc =
  match seg.T.seg_spawn with
  | Some spawn ->
    let acc = oid_root k f spawn.T.si_target acc in
    let acc = List.fold_left (fun acc v -> value_root k f v acc) acc spawn.T.si_args in
    status_roots f seg.T.seg_status acc
  | None ->
    (* every frame's non-nil live pointers, youngest frame first *)
    let pointer es bits acc =
      if Emc.Ir.is_pointer_type es.Emc.Template.es_type && bits <> 0 then f bits acc
      else acc
    in
    let acc =
      List.fold_right
        (fun fr acc -> Frame_walk.fold_live k fr pointer acc)
        (Frame_walk.walk k seg) acc
    in
    (match seg.T.seg_status with
    | T.Parked s -> suspension_roots k f s acc
    | T.Running -> raise (Kernel.Runtime_error "gc: segment is running")
    | T.Blocked_monitor _ | T.Awaiting_reply _ | T.Dead ->
      status_roots f seg.T.seg_status acc)

(* root-thread results already delivered but not yet read by the
   embedding harness: the value may still name local blocks *)
let harness_result_roots k f acc =
  let acc = ref acc in
  Kernel.iter_root_results k (fun _tid v ->
      match v with
      | Some v -> acc := value_root k f v !acc
      | None -> ());
  !acc

(* The collection cycle ----------------------------------------------------

   Snapshot-at-beginning over an array-backed color map: [start] copies
   the kernel's address-ordered block table (address array + color byte
   per block), the first increment scans every root, and after that
   [step ~budget] marks a bounded number of pointer slots per call, and
   finally sweeps the snapshot a bounded number of blocks per call.
   [collect] is the same cycle run to completion in one unbounded step.
   Soundness between increments rests on three rules:

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
  color : Bytes.t;  (* 0 white, 1 grey, 2 black *)
  grey : int array;  (* stack of snapshot positions: a block greys once *)
  mutable ngrey : int;
  mutable scanning : int;  (* the snapshot position [cursor] walks *)
  mutable cursor : int;  (* its next field; -1 when no block is partly scanned *)
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

(* the snapshot position of [addr], or -1 for an address that was not a
   block at cycle start (allocated since: allocate-black) *)
let position cy addr =
  let snap = cy.snap in
  let lo = ref 0 and hi = ref (Array.length snap) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if snap.(mid) < addr then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length snap && snap.(!lo) = addr then !lo else -1

(* [scan_block]'s result for a walk of fields [cursor, stop) of a block
   with [len] of them (none for a block without pointer slots): the
   slots scanned, at least 1, with the field to resume from (-1: none)
   left in [cy.cursor] *)
let scanned cy ~cursor ~stop ~len =
  cy.cursor <- (if stop >= len then -1 else stop);
  max 1 (stop - cursor)

(* resurrect a white block touched during the sweep: blacken it and,
   through [scan_block]'s touches, its not-yet-swept white descendants
   (transitively) so no block the mutator can now reach is freed this
   cycle *)
let rec resurrect cy k i =
  if Bytes.get_uint8 cy.color i = white && i >= cy.sweep_cursor then begin
    Bytes.set_uint8 cy.color i black;
    cy.live <- cy.live + 1;
    ignore (scan_block cy k i ~cursor:0 ~fuel:max_int : int)
  end

and touch cy k addr =
  let i = position cy addr in
  if i >= 0 then
    match cy.cphase with
    | Proots | Pmark ->
      if Bytes.get_uint8 cy.color i = white then begin
        Bytes.set_uint8 cy.color i grey_c;
        cy.live <- cy.live + 1;
        cy.grey.(cy.ngrey) <- i;
        cy.ngrey <- cy.ngrey + 1
      end
    | Psweep -> resurrect cy k i

(* the one walk over a block's pointer fields: touch up to [fuel] pointer
   slots of snapshot block [i] starting at field [cursor]; returns the
   slots scanned and leaves in [cy.cursor] the field to resume from, or
   -1 once the block is finished.  Reads are unsigned ([load32_bits]): a
   signed fold of a high-bit address would never match a block and the
   mark would be missed. *)
and scan_block cy k i ~cursor ~fuel =
  let addr = cy.snap.(i) in
  let mem = Kernel.mem k in
  if Kernel.is_vector_block k addr then begin
    let kind = Mem.load32_bits mem (addr + L.vec_kind) in
    if kind = L.kind_string || kind = L.kind_ref || kind = L.kind_vec then begin
      let len = Mem.load32_bits mem (addr + L.vec_len) in
      let stop = cursor + min fuel (len - cursor) in
      for j = cursor to stop - 1 do
        let a = Mem.load32_bits mem (addr + L.vec_elems + (4 * j)) in
        if a <> 0 then touch cy k a
      done;
      scanned cy ~cursor ~stop ~len
    end
    else scanned cy ~cursor ~stop:0 ~len:0
  end
  else if not (Kernel.is_resident k addr) then scanned cy ~cursor ~stop:0 ~len:0
  else begin
    let class_index = Kernel.class_of_object k addr in
    let lc = Kernel.loaded_class k class_index in
    let fields = lc.Kernel.lc_class.Emc.Compile.cc_template.Emc.Template.ct_fields in
    let nf = Array.length fields in
    let stop = cursor + min fuel (nf - cursor) in
    for j = cursor to stop - 1 do
      let _, ty = fields.(j) in
      if Emc.Ir.is_pointer_type ty then begin
        let a = Mem.load32_bits mem (addr + L.field_offset j) in
        if a <> 0 then touch cy k a
      end
    done;
    scanned cy ~cursor ~stop ~len:nf
  end

let start ?(extra_roots = []) ?(extra_addrs = []) k =
  let n = Kernel.block_count k in
  let snap = Array.make n 0 and snap_sizes = Array.make n 0 in
  let next = ref 0 in
  Kernel.iter_blocks k (fun ~addr ~size ->
      snap.(!next) <- addr;
      snap_sizes.(!next) <- size;
      incr next);
  let cy =
    {
      snap;
      snap_sizes;
      color = Bytes.make n (Char.chr white);
      grey = Array.make n 0;
      ngrey = 0;
      scanning = 0;
      cursor = -1;
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

let abort (_ : cycle) k =
  Mem.clear_store_barrier (Kernel.mem k);
  Kernel.set_on_ref_graft k None

(* migration send-off: the departing segment's roots may differ from
   their snapshot-time values (frames mutate through barriered stores,
   so this is belt-and-braces, but greying is always sound and it is
   deterministic), and after capture the segment is gone from the root
   set entirely.  Grey them before the capture runs. *)
let grey_segment cy k seg =
  match seg.T.seg_status with
  | T.Running -> ()
  | _ -> fold_segment_roots k (fun addr () -> touch cy k addr) seg ()

let grey_addr cy k addr = touch cy k addr

(* the whole root set is scanned in one increment: root volume is
   proportional to suspended segments and pinned handles, not heap size,
   and an atomic root snapshot is what makes snapshot-at-beginning
   marking sound without a register barrier.  Returns the roots found,
   each touched as it is found. *)
let scan_roots cy k =
  let root addr n =
    touch cy k addr;
    n + 1
  in
  let segs =
    List.sort
      (fun a b -> compare a.T.seg_id b.T.seg_id)
      (Kernel.segments k)
  in
  let n = List.fold_left (fun n seg -> fold_segment_roots k root seg n) 0 segs in
  let n = Array.fold_left (fun n addr -> root addr n) n (Kernel.string_literal_addrs k) in
  let n = List.fold_left (fun n oid -> oid_root k root oid n) n cy.cextra_roots in
  let n = List.fold_left (fun n addr -> root addr n) n cy.cextra_addrs in
  harness_result_roots k root n

let finish cy k ~scanned =
  abort cy k;
  Step_done
    {
      scanned;
      stats =
        { gc_live = cy.live; gc_swept = cy.swept; gc_bytes_freed = cy.bytes_freed };
    }

let step cy k ~budget =
  let budget = max 1 budget in
  let scanned = ref 0 in
  let finished = ref false in
  while (not !finished) && !scanned < budget do
    match cy.cphase with
    | Proots ->
      scanned := !scanned + max 1 (scan_roots cy k);
      cy.cphase <- Pmark
    | Pmark ->
      if cy.cursor < 0 && cy.ngrey = 0 then begin
        cy.cphase <- Psweep;
        cy.sweep_cursor <- 0
      end
      else begin
        if cy.cursor < 0 then begin
          cy.ngrey <- cy.ngrey - 1;
          cy.scanning <- cy.grey.(cy.ngrey);
          cy.cursor <- 0
        end;
        let i = cy.scanning in
        let fuel = budget - !scanned in
        scanned := !scanned + scan_block cy k i ~cursor:cy.cursor ~fuel;
        if cy.cursor < 0 then Bytes.set_uint8 cy.color i black
      end
    | Psweep ->
      if cy.sweep_cursor >= Array.length cy.snap then finished := true
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
  if !finished then finish cy k ~scanned:!scanned
  else Step_more { scanned = !scanned; phase = cy.cphase }

let collect ?extra_roots ?extra_addrs k =
  let cy = start ?extra_roots ?extra_addrs k in
  match step cy k ~budget:max_int with
  | Step_done { stats; _ } -> stats
  | Step_more _ -> assert false  (* an unbounded step ends the cycle *)
  | exception e ->
    abort cy k;
    raise e
