(** Accounting for network-format conversion work.

    The paper attributes the greater part of the enhanced system's
    performance penalty to its naive conversion routines: "an average of
    1-2 calls of conversion procedures are performed for each byte being
    transferred over the network" (section 3.6).  Every conversion
    procedure call in {!Wire} is counted here so the virtual-time cost
    model can charge for it. *)

type t

val create : unit -> t
val reset : t -> unit
val add_calls : t -> int -> unit
val add_bytes : t -> int -> unit
val calls : t -> int
val bytes : t -> int

val calls_per_byte : t -> float
(** [calls t / bytes t]; 0 when no bytes were converted. *)
