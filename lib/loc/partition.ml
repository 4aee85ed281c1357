(* The partition map: every OID hashes to one deterministic home node
   whose directory shard records the object's current location.  The map
   is a pure function of (oid, cluster size) — no state, no rebalancing
   — so any node computes any object's home without coordination, and
   the assignment is identical across runs. *)

type t = { pm_nodes : int }

let create ~n_nodes =
  if n_nodes <= 0 then invalid_arg "Partition.create: need a positive node count";
  { pm_nodes = n_nodes }

let nodes t = t.pm_nodes

(* SplitMix64-style finalizer over the interned OID: creator and serial
   both live in the low 30 bits, so without mixing, blocks of
   consecutive serials would stripe across consecutive homes and a hot
   creator node would load its neighbourhood.  The avalanche spreads
   each creator's objects over the whole cluster. *)
let mix x =
  let x = Int64.of_int x in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let home t oid =
  Int64.to_int (Int64.rem (Int64.logand (mix (Ert.Oid.intern oid)) Int64.max_int)
                  (Int64.of_int t.pm_nodes))
