(* One node's shard of the distributed location directory: the entries
   whose OIDs hash-partition to this node.  Each entry is the latest
   location the shard has heard of, stamped with the virtual time of the
   migration that produced it.

   Last-writer-wins by virtual timestamp is sound here: an object's
   successive moves happen sequentially along its trajectory, so their
   arrival timestamps strictly increase — a reordered (late, duplicated,
   retransmitted) update always carries an older stamp and is dropped.
   Stale entries are harmless in any case: a lookup answer is a hint,
   and the invoke it routes falls back to the forwarding-proxy walk at
   the hinted node.

   An entry is a row: its node is the value in the OID table's slot, and
   its stamp sits at the same index of [stamps].  Rows are never removed
   one by one (only all together, by [clear]), so a slot keeps its row. *)

type t = {
  nodes : int Ert.Oid_table.t;  (* OID -> last known location, or -1 *)
  mutable stamps : float array;  (* by slot: virtual time of that move *)
  mutable d_updates : int;  (* updates applied *)
  mutable d_stale : int;  (* updates dropped as older than the entry *)
  mutable d_hits : int;  (* lookups answered from an entry *)
  mutable d_misses : int;  (* lookups with no entry *)
}

(* room for 128 entries before the first growth.  Every birth registers
   at its home shard, so the shards fill while a cluster is populated:
   from 8 rows, each shard of a 64-node cluster of 5,000 objects grew
   four times during the build, and the discarded arrays cost 4% more
   OCaml allocation per event on bench/perf's locate (DESIGN.md §14) *)
let initial_rows = 128

let create () =
  {
    nodes = Ert.Oid_table.create ~capacity:initial_rows ~dummy:(-1) ();
    stamps = Array.make initial_rows 0.0;
    d_updates = 0;
    d_stale = 0;
    d_hits = 0;
    d_misses = 0;
  }

let length t = Ert.Oid_table.length t.nodes

let update t oid ~node ~at =
  let row = Ert.Oid_table.slot t.nodes oid in
  if row >= 0 && t.stamps.(row) > at then begin
    t.d_stale <- t.d_stale + 1;
    false
  end
  else begin
    (* a new OID takes the next slot *)
    let row = if row >= 0 then row else Ert.Oid_table.length t.nodes in
    Ert.Oid_table.replace t.nodes oid node;
    let n = Array.length t.stamps in
    if row = n then begin
      let stamps = Array.make (2 * n) 0.0 in
      Array.blit t.stamps 0 stamps 0 n;
      t.stamps <- stamps
    end;
    t.stamps.(row) <- at;
    t.d_updates <- t.d_updates + 1;
    true
  end

let lookup t oid =
  let node = Ert.Oid_table.find t.nodes oid in
  if node >= 0 then t.d_hits <- t.d_hits + 1 else t.d_misses <- t.d_misses + 1;
  node

let peek t oid = Ert.Oid_table.find t.nodes oid

(* rebuild support: drop every entry (a restarted node lost its shard)
   without resetting the counters, which survive as node statistics *)
let clear t = Ert.Oid_table.clear t.nodes

let updates t = t.d_updates
let stale_dropped t = t.d_stale
let hits t = t.d_hits
let misses t = t.d_misses
