(* A dense OID map: each live key owns a slot in a pair of parallel
   arrays, and an open-addressed index resolves OID -> slot.

   The index is two int arrays of a power-of-two size, at most half
   full: cell i holds an interned key ([Oid.intern]) and its slot, or
   [empty].  [empty] is [min_int], which no [Int32.to_int] image can be:
   data and code OIDs intern non-negative, but a bridge fragment's code
   OID is negative ([Bridge.fresh_oid]), so -1 would not do.  A key's
   home cell is a multiplicative hash of its interned image, and a
   probe walks forward from there to the key or to the first empty
   cell.  Removal shifts the rest of the run back into the hole rather
   than leaving a tombstone, so that rule stays true.  A lookup is a
   multiply and a few int compares: no C call, no allocation.

   Removal swaps the last slot down, so the arrays stay dense and every
   operation is O(1); iteration order is a deterministic function of the
   operation sequence (never of hashing), which keeps traces identical
   across runs. *)

type 'a t = {
  mutable cell_key : int array;  (* interned OID, or [empty] *)
  mutable cell_slot : int array;  (* the slot of [cell_key] *)
  mutable shift : int;  (* 63 - log2 (number of cells) *)
  mutable keys : Oid.t array;
  mutable vals : 'a array;
  mutable n : int;
  dummy : 'a;  (* fills vacated and never-used slots *)
}

(* 2^63 / golden ratio, odd: its top bits spread consecutive serials and
   equal serials of different creators over the cells *)
let golden = 0x4F1B_BCDC_BFA5_3E0B
let home t key = (key * golden) lsr t.shift
let empty = min_int

(* the cell holding [key], or the empty cell that ends its run *)
let rec probe cell_key mask key i =
  let k = cell_key.(i) in
  if k = key || k = empty then i else probe cell_key mask key ((i + 1) land mask)

let cell_of t key = probe t.cell_key (Array.length t.cell_key - 1) key (home t key)

let log2 n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

let create ?(capacity = 8) ~dummy () =
  let capacity = 1 lsl log2 (max 4 capacity) in
  let cells = 2 * capacity in
  {
    cell_key = Array.make cells empty;
    cell_slot = Array.make cells 0;
    shift = 63 - log2 cells;
    keys = Array.make capacity Oid.nil;
    vals = Array.make capacity dummy;
    n = 0;
    dummy;
  }

let length t = t.n

let slot_of_key t key =
  let i = cell_of t key in
  if t.cell_key.(i) = empty then -1 else t.cell_slot.(i)

let slot t oid = slot_of_key t (Oid.intern oid)
let mem t oid = slot t oid >= 0

let find_key t key =
  let s = slot_of_key t key in
  if s < 0 then t.dummy else t.vals.(s)

let find t oid = find_key t (Oid.intern oid)

let find_opt t oid =
  let s = slot t oid in
  if s < 0 then None else Some t.vals.(s)

(* double the slots and the cells, and re-index every key *)
let grow t =
  let cap = 2 * Array.length t.keys in
  let keys = Array.make cap Oid.nil in
  let vals = Array.make cap t.dummy in
  Array.blit t.keys 0 keys 0 t.n;
  Array.blit t.vals 0 vals 0 t.n;
  t.keys <- keys;
  t.vals <- vals;
  t.cell_key <- Array.make (2 * cap) empty;
  t.cell_slot <- Array.make (2 * cap) 0;
  t.shift <- t.shift - 1;
  for s = 0 to t.n - 1 do
    let key = Oid.intern keys.(s) in
    let i = cell_of t key in
    t.cell_key.(i) <- key;
    t.cell_slot.(i) <- s
  done

let replace t oid v =
  let key = Oid.intern oid in
  let i = cell_of t key in
  if t.cell_key.(i) <> empty then t.vals.(t.cell_slot.(i)) <- v
  else begin
    let i =
      if t.n < Array.length t.keys then i
      else begin
        grow t;
        cell_of t key
      end
    in
    t.cell_key.(i) <- key;
    t.cell_slot.(i) <- t.n;
    t.keys.(t.n) <- oid;
    t.vals.(t.n) <- v;
    t.n <- t.n + 1
  end

(* empty cell [hole], then walk the run after it: an entry whose home
   is not cyclically in (hole, j] would be cut off from its home by the
   hole, so it moves back into it and leaves its own cell empty *)
let close_hole t hole =
  let cell_key = t.cell_key and cell_slot = t.cell_slot in
  let mask = Array.length cell_key - 1 in
  let hole = ref hole and j = ref ((hole + 1) land mask) in
  while cell_key.(!j) <> empty do
    let h = home t cell_key.(!j) in
    if (!j - h) land mask >= (!j - !hole) land mask then begin
      cell_key.(!hole) <- cell_key.(!j);
      cell_slot.(!hole) <- cell_slot.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  cell_key.(!hole) <- empty

let remove_key t key =
  let i = cell_of t key in
  if t.cell_key.(i) <> empty then begin
    let s = t.cell_slot.(i) in
    close_hole t i;
    let last = t.n - 1 in
    if s < last then begin
      let moved = t.keys.(last) in
      t.keys.(s) <- moved;
      t.vals.(s) <- t.vals.(last);
      t.cell_slot.(cell_of t (Oid.intern moved)) <- s
    end;
    t.keys.(last) <- Oid.nil;
    t.vals.(last) <- t.dummy;
    t.n <- last
  end

let remove t oid = remove_key t (Oid.intern oid)

let clear t =
  Array.fill t.cell_key 0 (Array.length t.cell_key) empty;
  Array.fill t.keys 0 t.n Oid.nil;
  Array.fill t.vals 0 t.n t.dummy;
  t.n <- 0

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
