(* A dense, array-backed OID map: each live key owns a slot in a pair of
   parallel arrays, with a monomorphic int-keyed index (on [Oid.intern])
   resolving OID -> slot.  Compared to a polymorphic hashtable this keeps
   lookups free of Int32 boxing and polymorphic dispatch, and iteration
   walks a contiguous array — the representation the million-object
   cluster benchmark needs for its per-node object and proxy tables.

   Removal swaps the last slot down, so the arrays stay dense and every
   operation is O(1); iteration order is a deterministic function of the
   operation sequence (never of hashing), which keeps traces identical
   across runs. *)

module ITbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type 'a t = {
  index : int ITbl.t;  (* interned oid -> slot *)
  mutable keys : Oid.t array;
  mutable vals : 'a array;
  mutable n : int;
  dummy : 'a;  (* fills vacated and never-used slots *)
}

let create ?(capacity = 64) ~dummy () =
  let capacity = max 8 capacity in
  {
    index = ITbl.create capacity;
    keys = Array.make capacity Oid.nil;
    vals = Array.make capacity dummy;
    n = 0;
    dummy;
  }

let length t = t.n
let mem t oid = ITbl.mem t.index (Oid.intern oid)

let find_opt t oid =
  match ITbl.find_opt t.index (Oid.intern oid) with
  | Some slot -> Some t.vals.(slot)
  | None -> None

let grow t =
  let cap = Array.length t.keys * 2 in
  let keys = Array.make cap Oid.nil in
  let vals = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 t.n;
  Array.blit t.vals 0 vals 0 t.n;
  t.keys <- keys;
  t.vals <- vals

let replace t oid v =
  let key = Oid.intern oid in
  match ITbl.find_opt t.index key with
  | Some slot -> t.vals.(slot) <- v
  | None ->
    if t.n = Array.length t.keys then grow t;
    t.keys.(t.n) <- oid;
    t.vals.(t.n) <- v;
    ITbl.replace t.index key t.n;
    t.n <- t.n + 1

let remove t oid =
  let key = Oid.intern oid in
  match ITbl.find_opt t.index key with
  | None -> ()
  | Some slot ->
    ITbl.remove t.index key;
    let last = t.n - 1 in
    if slot < last then begin
      let moved = t.keys.(last) in
      t.keys.(slot) <- moved;
      t.vals.(slot) <- t.vals.(last);
      ITbl.replace t.index (Oid.intern moved) slot
    end;
    t.keys.(last) <- Oid.nil;
    t.vals.(last) <- t.dummy;
    t.n <- last

let iter f t =
  for i = 0 to t.n - 1 do
    f t.keys.(i) t.vals.(i)
  done

let fold f t init =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc
