(** Templates: the machine-independent compiler-generated descriptions of
    objects and activation records (section 3.2/3.3 of the paper).

    A class template describes the object data area (field names and
    types, attachment, literal initial values) and, for every operation,
    the activation-record contents in terms of abstract {e slots}: every
    variable has a slot, locals with disjoint live ranges may share one,
    and temporaries that live across a bus stop or block edge get slots
    too.  For each bus stop the template records exactly which entities
    own which slots and with which types — the information the runtime
    needs to convert an activation record to and from the
    machine-independent format, and the garbage collector needs to find
    pointers.

    The per-architecture half (slot offsets, frame sizes, PC values) lives
    in {!Busstop}, emitted by the code generators. *)

type slot_class =
  | Scalar  (** int, real, bool *)
  | Pointer  (** object references and strings *)

type entity_slot = {
  es_entity : Ir.entity;
  es_slot : int;
  es_type : Ast.typ;
}

type stop_t = {
  st_id : int;  (** class-global bus stop number *)
  st_op : int;
  st_kind : Ir.stop_kind;
  st_live : entity_slot list;
      (** slot ownership at this stop: the entities whose values occupy
          slots here, with the types they hold *)
}

type op_t = {
  ot_name : string;
  ot_index : int;
  ot_monitored : bool;
  ot_nparams : int;  (** including self *)
  ot_result_var : int option;
  ot_vars : (string * Ast.typ * int) array;  (** var id -> name, type, slot *)
  ot_temp_slots : int option array;  (** temp id -> slot, when slotted *)
  ot_nslots : int;
  ot_slot_class : slot_class array;
}

type class_t = {
  ct_name : string;
  ct_index : int;
  ct_oid : int32;
  ct_fields : (string * Ast.typ) array;
  ct_attached : bool array;
  ct_field_inits : Ir.field_init array;
  ct_conditions : string array;
  ct_strings : string array;
  ct_ops : op_t array;
  ct_stops : stop_t array;
      (** every operation's stops, dense by class-global stop id *)
  ct_nstops : int;
}

val slot_class_of_type : Ast.typ -> slot_class
val stop_by_id : class_t -> int -> stop_t
(** @raise Invalid_argument if the class has no stop with this id. *)

val op_of_stop : class_t -> int -> op_t
val var_slot : op_t -> int -> int
val pp_class : Format.formatter -> class_t -> unit
