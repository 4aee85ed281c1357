type family = Vax | M68k | Sparc

type t = {
  id : string;
  name : string;
  family : family;
  endian : Endian.t;
  float_format : Float_format.t;
  clock_mhz : float;
  mips : float;
  has_atomic_unlink : bool;
}

let vax =
  {
    id = "vax";
    name = "VAX";
    family = Vax;
    endian = Endian.Little;
    float_format = Float_format.Vax_f;
    clock_mhz = 5.0;
    mips = 2.0;
    has_atomic_unlink = true;
  }

let sun3 =
  {
    id = "sun3";
    name = "Sun-3";
    family = M68k;
    endian = Endian.Big;
    float_format = Float_format.Ieee_single;
    clock_mhz = 16.0;
    mips = 2.7;
    has_atomic_unlink = false;
  }

let hp9000_433 =
  {
    id = "hp433";
    name = "HP9000/300-1";
    family = M68k;
    endian = Endian.Big;
    float_format = Float_format.Ieee_single;
    clock_mhz = 33.0;
    mips = 26.0;
    has_atomic_unlink = false;
  }

let hp9000_385 =
  {
    id = "hp385";
    name = "HP9000/300-2";
    family = M68k;
    endian = Endian.Big;
    float_format = Float_format.Ieee_single;
    clock_mhz = 25.0;
    mips = 9.0;
    has_atomic_unlink = false;
  }

let sparc =
  {
    id = "sparc";
    name = "SPARC";
    family = Sparc;
    endian = Endian.Big;
    float_format = Float_format.Ieee_single;
    clock_mhz = 20.0;
    mips = 6.0;
    has_atomic_unlink = false;
  }

let all = [ vax; sun3; hp9000_433; hp9000_385; sparc ]

let by_id id =
  match List.find_opt (fun a -> String.equal a.id id) all with
  | Some a -> a
  | None -> raise Not_found

let family_name = function
  | Vax -> "VAX"
  | M68k -> "MC680x0"
  | Sparc -> "SPARC"

let equal a b = String.equal a.id b.id

let equal_family a b =
  match a, b with
  | Vax, Vax | M68k, M68k | Sparc, Sparc -> true
  | (Vax | M68k | Sparc), _ -> false

let pp ppf a = Format.fprintf ppf "%s(%s)" a.name (family_name a.family)
let cycle_time_ns a = 1000.0 /. a.clock_mhz

(* ------------------------------------------------------------------ *)
(* Layout fingerprints for the negotiated common-layout migration mode *)
(* ------------------------------------------------------------------ *)

(* One word summarizing everything that decides whether two machines
   can exchange thread state by verbatim copy: byte order, float
   format, word size, and the family (which fixes activation-record
   linkage/field packing — a SPARC register window is not an M68k
   stack frame even though both are big-endian IEEE machines). *)
let word_size_bytes = 4

let compute_fingerprint a =
  let fam = match a.family with Vax -> 1 | M68k -> 2 | Sparc -> 3 in
  let en = match a.endian with Endian.Little -> 0 | Endian.Big -> 1 in
  let ff =
    match a.float_format with
    | Float_format.Vax_f -> 0
    | Float_format.Ieee_single -> 1
  in
  (* a tag bit keeps every fingerprint nonzero so 0 can mean "not yet
     interned" in the memo below *)
  0x4C00_0000 lor (fam lsl 12) lor (en lsl 8) lor (ff lsl 4) lor word_size_bytes

(* interned once per descriptor, like conversion-plan pairs: the memo
   is indexed by the (small, closed) set of architecture ids, and the
   counters let emrun --stats assert migrations hit the memo instead
   of recomputing per move *)
let fp_ord a =
  match a.id with
  | "vax" -> 0
  | "sun3" -> 1
  | "hp433" -> 2
  | "hp385" -> 3
  | "sparc" -> 4
  | _ -> -1

let fp_slots = Array.make 5 0
let fp_computes = ref 0
let fp_hits = ref 0

let fingerprint a =
  let i = fp_ord a in
  if i < 0 then begin
    (* descriptors outside the builtin set (tests) are not interned *)
    incr fp_computes;
    compute_fingerprint a
  end
  else
    let v = fp_slots.(i) in
    if v <> 0 then begin
      incr fp_hits;
      v
    end
    else begin
      let v = compute_fingerprint a in
      fp_slots.(i) <- v;
      incr fp_computes;
      v
    end

let same_layout a b = fingerprint a = fingerprint b
let fingerprint_computes () = !fp_computes
let fingerprint_hits () = !fp_hits
