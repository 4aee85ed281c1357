type t = int

let count = function
  | Arch.Vax -> 15 (* R0..R14; PC not materialised *)
  | Arch.M68k -> 16
  | Arch.Sparc -> 32

let sp = function
  | Arch.Vax -> 14
  | Arch.M68k -> 15
  | Arch.Sparc -> 14 (* %o6 *)

let fp = function
  | Arch.Vax -> 13
  | Arch.M68k -> 14 (* A6 *)
  | Arch.Sparc -> 30 (* %i6 *)

let scratch = function
  | Arch.Vax -> [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]
  | Arch.M68k -> [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13 ]
  | Arch.Sparc -> [ 16; 17; 18; 19; 20; 21; 22; 23; 1; 2; 3; 4; 5 ]

let name family r =
  match family with
  | Arch.Vax -> (
    match r with
    | 12 -> "AP"
    | 13 -> "FP"
    | 14 -> "SP"
    | n -> Printf.sprintf "R%d" n)
  | Arch.M68k -> if r < 8 then Printf.sprintf "D%d" r else Printf.sprintf "A%d" (r - 8)
  | Arch.Sparc ->
    let bank = [| "g"; "o"; "l"; "i" |].(r / 8) in
    Printf.sprintf "%%%s%d" bank (r mod 8)

let pp family ppf r = Format.pp_print_string ppf (name family r)
