(* Log-bucketed (HDR-style) latency histogram over virtual microseconds.

   Samples are truncated to integer nanoseconds and bucketed with 16
   sub-buckets per power of two, bounding the relative quantization
   error of any reported quantile at 1/16 (~6%).  Everything is integer
   arithmetic on the sample's bit pattern, so identical sample streams
   produce identical histograms — the determinism the pinned span tests
   rely on. *)

let sub_bits = 4
let sub = 1 lsl sub_bits (* 16 sub-buckets per octave *)
let n_buckets = sub + ((62 - sub_bits + 1) * sub)

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum_ns : int;
  mutable max_ns : int;
}

let create () = { buckets = Array.make n_buckets 0; count = 0; sum_ns = 0; max_ns = 0 }

let msb_position v =
  (* v > 0; position of the highest set bit *)
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_of_ns v =
  if v < sub then v
  else begin
    let m = msb_position v in
    ((m - sub_bits) * sub) + (v lsr (m - sub_bits))
  end

(* the lower bound (in ns) of the values mapping to bucket [b]:
   bucket_of_ns is monotone and lower_bound_ns inverts it to the
   smallest member *)
let lower_bound_ns b =
  if b < 2 * sub then b
  else begin
    let oct = (b / sub) - 1 in
    let si = b mod sub in
    (sub + si) lsl oct
  end

let add t us =
  let ns = if us <= 0.0 then 0 else int_of_float (us *. 1000.0) in
  let b = bucket_of_ns ns in
  let b = if b >= n_buckets then n_buckets - 1 else b in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum_ns <- t.sum_ns + ns;
  if ns > t.max_ns then t.max_ns <- ns

let count t = t.count
let max_us t = float_of_int t.max_ns /. 1000.0
let mean_us t = if t.count = 0 then 0.0 else float_of_int t.sum_ns /. 1000.0 /. float_of_int t.count

(* the value at quantile [p] (0 < p <= 100): the lower bound of the
   bucket holding the ceil(p/100 * count)-th smallest sample *)
let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let rec go b seen =
      let seen = seen + t.buckets.(b) in
      if seen >= rank then float_of_int (lower_bound_ns b) /. 1000.0
      else go (b + 1) seen
    in
    go 0 0
  end

let merge ~into src =
  Array.iteri (fun i v -> into.buckets.(i) <- into.buckets.(i) + v) src.buckets;
  into.count <- into.count + src.count;
  into.sum_ns <- into.sum_ns + src.sum_ns;
  if src.max_ns > into.max_ns then into.max_ns <- src.max_ns
