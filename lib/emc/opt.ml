(* Optimization levels and per-instance edit provenance.

   A level names a code *instance*: the same operation compiled at two
   levels yields two bodies under one code OID, with identical bus-stop
   numbering and identical per-stop slot state (every optimization below
   preserves the canonical-slots-at-stops contract), but different
   instruction sequences between the stops.  The edit list records what
   each pass did to this instance, so tools (emdis --opt-diff) and the
   bridging machinery can explain why two instances differ. *)

type level =
  | O0  (* straight template code, one load/store per IR step *)
  | O1  (* register caching of variables + adjacent store/reload peephole *)
  | O2  (* O1 plus windowed redundant-load elimination and loop-poll
           elision in blocks already carrying a system-call bus stop *)

let to_int = function
  | O0 -> 0
  | O1 -> 1
  | O2 -> 2

let of_int = function
  | 0 -> O0
  | 1 -> O1
  | 2 -> O2
  | n -> invalid_arg (Printf.sprintf "Opt.of_int: no optimization level %d" n)

let to_string l = Printf.sprintf "O%d" (to_int l)
let compare a b = Int.compare (to_int a) (to_int b)
let equal a b = to_int a = to_int b
let ( >= ) a b = to_int a >= to_int b
let all = [ O0; O1; O2 ]

(* One optimizer edit, recorded while a pass runs.  [ed_index] is the
   instruction index in that pass's input buffer (passes run in sequence,
   so indices are per pass, not global); [ed_desc] is human-readable. *)
type edit = {
  ed_pass : string;  (* "peephole" | "rle" | "poll-elide" *)
  ed_index : int;
  ed_desc : string;
}

let pp_edit ppf e =
  Format.fprintf ppf "[%s @@ %d] %s" e.ed_pass e.ed_index e.ed_desc
