(** Object identifiers.

    OIDs uniquely identify objects regardless of their location
    (section 3.2).  Two disjoint spaces share the 32-bit representation:

    - code-object OIDs, assigned deterministically by the program
      database (30-bit values, bit 30 clear);
    - data-object OIDs, allocated without cluster-wide coordination by
      tagging the creating node into the value (bit 30 set; 12-bit node
      field, 18-bit per-node serial). *)

type t = int32

val nil : t
val is_code : t -> bool
val is_data : t -> bool

val max_nodes : int
(** Capacity of the node field (4096). *)

val max_serial : int
(** Capacity of the per-node serial field (2^18 per node). *)

val fresh_data : node_id:int -> serial:int -> t
(** @raise Invalid_argument when node or serial exceed their fields. *)

val creator_node : t -> int option
(** Creating node of a data OID. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val intern : t -> int
(** Order-preserving plain-int image: [compare a b] and
    [Int.compare (intern a) (intern b)] always agree.  It is
    non-negative for data and code OIDs; a bridge fragment's code OID
    ({!Bridge.fresh_oid}) is negative.  {!Oid_table} and the location
    directory key on this to avoid polymorphic compares and [Int32]
    boxing. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
