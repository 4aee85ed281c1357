type t = {
  mutable calls : int;
  mutable bytes : int;
}

let create () = { calls = 0; bytes = 0 }

let reset t =
  t.calls <- 0;
  t.bytes <- 0

let add_calls t n = t.calls <- t.calls + n
let add_bytes t n = t.bytes <- t.bytes + n
let calls t = t.calls
let bytes t = t.bytes

let calls_per_byte t =
  if t.bytes = 0 then 0.0 else float_of_int t.calls /. float_of_int t.bytes
