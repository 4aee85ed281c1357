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

(* Whether two machines can exchange thread state by verbatim copy: the
   same byte order, float format and family (which fixes activation-
   record linkage and field packing — a SPARC register window is not an
   M68k stack frame even though both are big-endian IEEE machines).
   Every machine here has 4-byte words. *)
let same_layout a b =
  equal_family a.family b.family
  && Endian.equal a.endian b.endian
  && Float_format.equal a.float_format b.float_format
