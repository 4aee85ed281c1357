(* Per-node cache of compiled bridge fragments (section 2.4).

   When a thread migrates in parked at a bus stop that has no exact
   correspondent in the node's code instance (-O2 elided a loop Poll),
   the kernel synthesizes a tiny fragment of target-ISA code — a [Poll]
   for the stop followed by an absolute jump to the instance's resume
   point — loads it into text under a synthetic code OID, and resumes
   the thread inside it.  The fragment executes no source-level action,
   so the exactly-once discipline is preserved by construction; a thread
   captured while suspended at the fragment's Poll reports the same bus
   stop, so re-migration from inside a bridge needs no special case.

   Fragments are keyed by (class code OID, stop id) and reused for every
   subsequent landing; hit/miss counts feed the runtime statistics and
   the bench bridge experiment.  Synthetic OIDs are negative — program
   code OIDs are positive 30-bit database keys, so the spaces can never
   collide. *)

type t = {
  by_stop : (int32 * int, int) Hashtbl.t;  (* (class code OID, stop id) -> base *)
  mutable serial : int;
  mutable hits : int;
  mutable misses : int;
}

let create () = { by_stop = Hashtbl.create 8; serial = 0; hits = 0; misses = 0 }

let fresh_oid t =
  t.serial <- t.serial + 1;
  Int32.of_int (-t.serial)

let find t ~code_oid ~stop_id =
  match Hashtbl.find_opt t.by_stop (code_oid, stop_id) with
  | Some base ->
    t.hits <- t.hits + 1;
    Some base
  | None ->
    t.misses <- t.misses + 1;
    None

let add t ~code_oid ~stop_id base = Hashtbl.replace t.by_stop (code_oid, stop_id) base

(* drop every fragment but keep the cumulative counters and the OID
   serial: fragment base addresses die with the kernel text they were
   loaded into, so a node restart must void them *)
let clear t = Hashtbl.reset t.by_stop
let count t = Hashtbl.length t.by_stop
let hits t = t.hits
let misses t = t.misses
