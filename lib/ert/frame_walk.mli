(** Stack walking over suspended segments.

    Because the kernel only regains control at bus stops, every suspended
    activation record's program counter is a bus stop, and the chain of
    frame pointers plus the per-architecture bus-stop geometry is enough
    to enumerate the records.  Both migration (translation to the
    machine-independent format) and the garbage collector (pointer
    identification, section 3.2/[JJ92]) are built on {!fold}, the one
    walk over the chain. *)

val fold :
  Kernel.t -> Thread.segment ->
  (class_index:int -> method_index:int -> Emc.Busstop.entry -> fp:int -> ret_out:int -> 'a -> 'a) ->
  'a -> 'a
(** [fold k seg f acc] passes each activation record, youngest first,
    to [f]: its class index, method index, the bus stop where it is
    suspended, its frame pointer and its absolute return address (0 at
    the bottom).  No record or list is built, so a callback without free
    variables makes a walk that allocates nothing (the collector's root
    scan).  A never-executed segment has no records.
    @raise Kernel.Runtime_error if a suspension PC is not a bus stop. *)

type frame_rec = {
  fw_class : int;  (** class index of the frame's code object *)
  fw_method : int;
  fw_entry : Emc.Busstop.entry;  (** the bus stop where this record is suspended *)
  fw_fp : int;
  fw_ret_out : int;  (** absolute return address out of this frame; 0 at bottom *)
  fw_self : int;  (** local address of the object this record executes in *)
}

val walk : Kernel.t -> Thread.segment -> frame_rec list
(** {!fold}'s records as a list, youngest first: what capture and
    migration split on. *)

val fold_live :
  Kernel.t -> class_index:int -> method_index:int -> Emc.Busstop.entry -> fp:int ->
  (Emc.Template.entity_slot -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_live k ~class_index ~method_index entry ~fp f acc] folds [f]
    over the entities live at the frame's bus stop, each with the word
    its slot holds as unsigned 32-bit bits in an [int]
    ({!Isa.Memory.load32_bits}), from the last entity of the template's
    live list to the first, so that consing onto [acc] yields a list in
    template order.  The only walk over a frame's slots: capture
    translates every live entity, the collector keeps the non-nil
    pointers as roots. *)

val live_count : Kernel.t -> frame_rec -> int
(** The number of entities {!fold_live} visits. *)

val self_offset : Kernel.t -> class_index:int -> method_index:int -> int
(** FP-relative offset of the method's self slot on this node. *)

val sparc_i6_off : int
val sparc_i7_off : int
(** Offsets, from a SPARC frame's stack pointer, of the saved [%i6]
    (the caller's frame pointer) and [%i7] (the return address) in the
    register-window spill area. *)
