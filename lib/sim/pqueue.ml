(* Parallel-array binary min-heap.  A record-of-entries layout costs an
   allocation per push and a pointer chase per comparison (the float key
   is boxed inside a mixed record); four parallel arrays keep the keys
   flat — [times] is an unboxed float array — and make push/pop
   allocation-free. *)

type 'a t = {
  mutable times : float array;
  mutable ranks : int array;
  mutable seqs : int array;
  mutable items : 'a array;
  mutable size : int;
  mutable seq : int;
}

let create () =
  { times = [||]; ranks = [||]; seqs = [||]; items = [||]; size = 0; seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* entry i orders before entry j: time, then rank, then insertion order *)
let lt t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j)
     && (t.ranks.(i) < t.ranks.(j)
        || (t.ranks.(i) = t.ranks.(j) && t.seqs.(i) < t.seqs.(j))))

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let rk = t.ranks.(i) in
  t.ranks.(i) <- t.ranks.(j);
  t.ranks.(j) <- rk;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let it = t.items.(i) in
  t.items.(i) <- t.items.(j);
  t.items.(j) <- it

let grow t item =
  let cap = Array.length t.times in
  let cap' = max 16 (2 * cap) in
  let times = Array.make cap' 0.0 in
  let ranks = Array.make cap' 0 in
  let seqs = Array.make cap' 0 in
  (* the fresh item doubles as the filler for the unused tail *)
  let items = Array.make cap' item in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.ranks 0 ranks 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.items 0 items 0 t.size;
  t.times <- times;
  t.ranks <- ranks;
  t.seqs <- seqs;
  t.items <- items

let push t ~time ~rank item =
  t.seq <- t.seq + 1;
  if t.size = Array.length t.times then grow t item;
  let n = t.size in
  t.times.(n) <- time;
  t.ranks.(n) <- rank;
  t.seqs.(n) <- t.seq;
  t.items.(n) <- item;
  t.size <- n + 1;
  let i = ref n in
  while !i > 0 && lt t !i ((!i - 1) / 2) do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let sift_down t =
  let i = ref 0 in
  let sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < t.size && lt t l !m then m := l;
    if r < t.size && lt t r !m then m := r;
    if !m = !i then sifting := false
    else begin
      swap t !i !m;
      i := !m
    end
  done

let min_time t =
  if t.size = 0 then invalid_arg "Pqueue.min_time: empty queue"
  else t.times.(0)

let take_min t =
  if t.size = 0 then invalid_arg "Pqueue.take_min: empty queue"
  else begin
    let top = t.items.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.times.(0) <- t.times.(t.size);
      t.ranks.(0) <- t.ranks.(t.size);
      t.seqs.(0) <- t.seqs.(t.size);
      t.items.(0) <- t.items.(t.size);
      sift_down t
    end;
    top
  end
