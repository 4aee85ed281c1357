(** Virtual-time spans over the migration pipeline.

    A span brackets one phase of work — a migration, a translation pass,
    an encode, a wire transfer — between two readings of a node's
    virtual clock.  Phase spans point at their enclosing move span
    through [parent], giving each completed migration a two-level tree:
    one root ["move"] span and one child per pipeline phase. *)

type id = {
  id_node : int;  (** the node that allocated the id *)
  id_seq : int;  (** that node's span counter (1-based) *)
}
(** Span identity.  Per-node sequence numbers make allocation
    deterministic. *)

type t = {
  name : string;
  node : int;
  arch_pair : string;  (** ["src->dst"] architecture ids *)
  t_start_us : float;
  t_end_us : float;
  id : id;
  parent : id option;
  bytes : int;  (** payload bytes, when the phase moved any; else 0 *)
}

val duration_us : t -> float
val id_to_string : id -> string
val compare_id : id -> id -> int
val to_string : t -> string
