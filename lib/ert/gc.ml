module Mem = Isa.Memory
module L = Emc.Layout
module T = Thread

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
   their fate to the next cycle.

   A node keeps one cycle state for every cycle it runs: the snapshot,
   size, color and grey arrays only grow, and the barrier and graft
   hook are made once with the state.  Opening a cycle, scanning roots,
   marking and sweeping allocate nothing. *)

type phase = Proots | Pmark | Psweep

let phase_name = function
  | Proots -> "gc_roots"
  | Pmark -> "gc_mark"
  | Psweep -> "gc_sweep"

type t = {
  k : Kernel.t;
  mutable snap : int array;  (* the first [nsnap]: block addresses at cycle start, ascending *)
  mutable snap_sizes : int array;
  mutable color : Bytes.t;  (* 0 white, 1 grey, 2 black *)
  mutable grey : int array;  (* stack of snapshot positions: a block greys once *)
  mutable nsnap : int;
  mutable ngrey : int;
  mutable scanning : int;  (* the snapshot position [cursor] walks *)
  mutable cursor : int;  (* its next field; -1 when no block is partly scanned *)
  mutable cphase : phase;
  mutable sweep_cursor : int;
  mutable live : int;
  mutable swept : int;
  mutable bytes_freed : int;
  mutable roots : int;  (* root touches of the running root scan *)
  mutable extra_roots : Oid.t list;
  mutable extra_addrs : int list;
  mutable opened : bool;
  barrier : (int -> int -> unit) option;
  graft : (int -> unit) option;
}

let white = 0
let grey_c = 1
let black = 2

(* the snapshot position of [addr], or -1 for an address that was not a
   block at cycle start (allocated since: allocate-black) *)
let position cy addr =
  let snap = cy.snap in
  let lo = ref 0 and hi = ref cy.nsnap in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if snap.(mid) < addr then lo := mid + 1 else hi := mid
  done;
  if !lo < cy.nsnap && snap.(!lo) = addr then !lo else -1

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
let rec resurrect cy i =
  if Bytes.get_uint8 cy.color i = white && i >= cy.sweep_cursor then begin
    Bytes.set_uint8 cy.color i black;
    cy.live <- cy.live + 1;
    ignore (scan_block cy i ~cursor:0 ~fuel:max_int : int)
  end

and touch cy addr =
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
    | Psweep -> resurrect cy i

(* the one walk over a block's pointer fields: touch up to [fuel] pointer
   slots of snapshot block [i] starting at field [cursor]; returns the
   slots scanned and leaves in [cy.cursor] the field to resume from, or
   -1 once the block is finished.  Reads are unsigned ([load32_bits]): a
   signed fold of a high-bit address would never match a block and the
   mark would be missed. *)
and scan_block cy i ~cursor ~fuel =
  let k = cy.k in
  let addr = cy.snap.(i) in
  let mem = Kernel.mem k in
  if Kernel.is_vector_block k addr then begin
    let kind = Mem.load32_bits mem (addr + L.vec_kind) in
    if kind = L.kind_string || kind = L.kind_ref || kind = L.kind_vec then begin
      let len = Mem.load32_bits mem (addr + L.vec_len) in
      let stop = cursor + min fuel (len - cursor) in
      for j = cursor to stop - 1 do
        let a = Mem.load32_bits mem (addr + L.vec_elems + (4 * j)) in
        if a <> 0 then touch cy a
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
        if a <> 0 then touch cy a
      end
    done;
    scanned cy ~cursor ~stop ~len:nf
  end

let create k =
  let rec cy =
    { k; snap = [||]; snap_sizes = [||]; color = Bytes.empty; grey = [||]; nsnap = 0;
      ngrey = 0; scanning = 0; cursor = -1; cphase = Proots; sweep_cursor = 0; live = 0;
      swept = 0; bytes_freed = 0; roots = 0; extra_roots = []; extra_addrs = [];
      opened = false;
      barrier =
        Some
          (fun old_bits new_bits ->
            touch cy old_bits;
            touch cy new_bits);
      graft = Some (fun addr -> touch cy addr) }
  in
  cy

(* Roots ----------------------------------------------------------------

   Each root is touched where it is found, with no list of them.  Every
   walk below has a fold's shape, with the cycle state as accumulator,
   so the folds take these functions as they are and the root scan
   builds no closure. *)

let root cy addr =
  cy.roots <- cy.roots + 1;
  touch cy addr;
  cy

(* the object an OID's interned image names here, if any *)
let key_root cy key =
  match Kernel.ref_addr cy.k key with
  | 0 -> cy
  | addr -> root cy addr

let rec value_root cy (v : Value.t) =
  match v with
  | Value.Vref oid -> key_root cy (Oid.intern oid)
  | Value.Vvec (_, xs) -> Array.fold_left value_root cy xs
  | Value.Vint _ | Value.Vreal _ | Value.Vbool _ | Value.Vstr _ | Value.Vnil -> cy

let suspension_roots cy (s : T.suspension) =
  match s with
  | Isa.Suspend.Deliver v | Isa.Suspend.Complete (Some v) -> value_root cy v
  | Isa.Suspend.Complete_word (Isa.Suspend.Wref, key) -> key_root cy key
  | Isa.Suspend.Complete_word ((Isa.Suspend.Wint | Isa.Suspend.Wbool), _)
  | Isa.Suspend.Complete None | Isa.Suspend.Run | Isa.Suspend.Complete_dequeue _
  | Isa.Suspend.Poll | Isa.Suspend.Syscall _ | Isa.Suspend.Bottom_return
  | Isa.Suspend.Halt | Isa.Suspend.Trap _ | Isa.Suspend.Fuel -> cy

(* roots carried by the waiting state itself, beyond any frame slot: a
   waiter queued on a monitor keeps the monitor's object alive even when
   no live slot still holds the reference (the entry sequence may have
   consumed it), and sweeping it would leave the wake path reading freed
   memory.  [Awaiting_reply] carries only the machine-independent stop
   id — the pending value lives on the replying node until
   [deliver_result] lands it. *)
let status_roots cy (st : T.status) =
  match st with
  | T.Blocked_monitor { mon_addr; _ } -> root cy mon_addr
  | T.Parked _ | T.Running | T.Awaiting_reply _ | T.Dead -> cy

(* [Frame_walk.fold_live]'s callback: a non-nil live pointer *)
let slot_root (es : Emc.Template.entity_slot) bits cy =
  if Emc.Ir.is_pointer_type es.Emc.Template.es_type && bits <> 0 then root cy bits else cy

(* [Frame_walk.fold]'s callback: one frame's live slots *)
let frame_roots ~class_index ~method_index entry ~fp ~ret_out:_ cy =
  Frame_walk.fold_live cy.k ~class_index ~method_index entry ~fp slot_root cy

(* the block addresses a suspended segment keeps live: frame slots via
   the bus-stop templates, youngest frame first, then suspension values
   and monitor-waiter state; or, for a never-dispatched segment, its
   spawn target and arguments *)
let segment_roots cy (seg : T.segment) =
  match seg.T.seg_spawn with
  | Some spawn ->
    let cy = List.fold_left value_root (key_root cy (Oid.intern spawn.T.si_target)) spawn.T.si_args in
    status_roots cy seg.T.seg_status
  | None -> (
    let cy = Frame_walk.fold cy.k seg frame_roots cy in
    match seg.T.seg_status with
    | T.Parked s -> suspension_roots cy s
    | T.Running -> raise (Kernel.Runtime_error "gc: segment is running")
    | T.Blocked_monitor _ | T.Awaiting_reply _ | T.Dead -> status_roots cy seg.T.seg_status)

(* root-thread results already delivered but not yet read by the
   embedding harness: the value may still name local blocks *)
let result_root _tid (v : Value.t option) cy =
  match v with
  | Some v -> value_root cy v
  | None -> cy

(* the whole root set is scanned in one increment: root volume is
   proportional to suspended segments and pinned handles, not heap size,
   and an atomic root snapshot is what makes snapshot-at-beginning
   marking sound without a register barrier.  Segments go in ascending
   id, then the string literals, the pinned OIDs and addresses, and the
   unread harness results.  Returns the roots touched. *)
let scan_roots cy =
  let k = cy.k in
  cy.roots <- 0;
  for i = 0 to Kernel.live_segment_count k - 1 do
    ignore (segment_roots cy (Kernel.segment_by_rank k i) : t)
  done;
  let cy = Array.fold_left root cy (Kernel.string_literal_addrs k) in
  let cy = List.fold_left (fun cy oid -> key_root cy (Oid.intern oid)) cy cy.extra_roots in
  let cy = List.fold_left root cy cy.extra_addrs in
  (Kernel.fold_root_results k result_root cy).roots

(* The cycle ------------------------------------------------------------ *)

let snap_block ~addr ~size cy =
  let i = cy.nsnap in
  cy.snap.(i) <- addr;
  cy.snap_sizes.(i) <- size;
  cy.nsnap <- i + 1;
  cy

let start cy ~extra_roots ~extra_addrs =
  if cy.opened then invalid_arg "Gc.start: the node's cycle is already open";
  let k = cy.k in
  let n = Kernel.block_count k in
  if n > Array.length cy.snap then begin
    let cap = max n (2 * Array.length cy.snap) in
    cy.snap <- Array.make cap 0;
    cy.snap_sizes <- Array.make cap 0;
    cy.color <- Bytes.create cap;
    cy.grey <- Array.make cap 0
  end;
  cy.nsnap <- 0;
  ignore (Kernel.fold_blocks k snap_block cy : t);
  Bytes.fill cy.color 0 cy.nsnap (Char.chr white);
  cy.ngrey <- 0;
  cy.scanning <- 0;
  cy.cursor <- -1;
  cy.cphase <- Proots;
  cy.sweep_cursor <- 0;
  cy.live <- 0;
  cy.swept <- 0;
  cy.bytes_freed <- 0;
  cy.extra_roots <- extra_roots;
  cy.extra_addrs <- extra_addrs;
  cy.opened <- true;
  Mem.set_store_barrier (Kernel.mem k) cy.barrier;
  Kernel.set_on_ref_graft k cy.graft

let abort cy =
  cy.opened <- false;
  Mem.set_store_barrier (Kernel.mem cy.k) None;
  Kernel.set_on_ref_graft cy.k None

(* migration send-off: the departing segment's roots may differ from
   their snapshot-time values (frames mutate through barriered stores,
   so this is belt-and-braces, but greying is always sound and it is
   deterministic), and after capture the segment is gone from the root
   set entirely.  Grey them before the capture runs. *)
let grey_segment cy seg =
  match seg.T.seg_status with
  | T.Running -> ()
  | T.Parked _ | T.Blocked_monitor _ | T.Awaiting_reply _ | T.Dead ->
    ignore (segment_roots cy seg : t)

let grey_addr cy addr = touch cy addr

let step cy ~budget =
  let budget = max 1 budget in
  let scanned = ref 0 in
  while cy.opened && !scanned < budget do
    match cy.cphase with
    | Proots ->
      scanned := !scanned + max 1 (scan_roots cy);
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
        scanned := !scanned + scan_block cy i ~cursor:cy.cursor ~fuel;
        if cy.cursor < 0 then Bytes.set_uint8 cy.color i black
      end
    | Psweep ->
      if cy.sweep_cursor >= cy.nsnap then abort cy
      else begin
        let i = cy.sweep_cursor in
        cy.sweep_cursor <- i + 1;
        if Bytes.get_uint8 cy.color i = white then begin
          Kernel.free_block cy.k cy.snap.(i);
          cy.swept <- cy.swept + 1;
          cy.bytes_freed <- cy.bytes_freed + cy.snap_sizes.(i)
        end;
        incr scanned
      end
  done;
  !scanned

let collect cy ~extra_roots ~extra_addrs =
  start cy ~extra_roots ~extra_addrs;
  match step cy ~budget:max_int with
  | (_ : int) -> ()  (* an unbounded step ends the cycle *)
  | exception e ->
    abort cy;
    raise e

let is_open cy = cy.opened
let phase cy = cy.cphase
let live cy = cy.live
let swept cy = cy.swept
let bytes_freed cy = cy.bytes_freed
