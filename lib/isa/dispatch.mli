(** Threaded-dispatch execution: the fetch/decode interpreter's fast
    replacement.

    Each straight-line run of instructions is translated once, on first
    execution, into a chain of per-instruction closures — operand
    addressing modes, cycle charges and fall-through targets resolved at
    translation time — and the compiler's two hot adjacent pairs
    (compare-then-branch, loop-bottom poll-then-branch) are fused into
    superinstructions.  Translations are cached per code object in a
    {!cache} (one per kernel, handed out by the code repository) and are
    valid only for the memory and load address they were built against.

    The engine is observationally identical to {!Machine.run}: same
    stops, same traps (including mid-instruction PC placement), same
    cycle and instruction counters, same fuel accounting, same
    {!Machine.stop} and eviction-trap semantics.  The tier-1 trace tests
    hold it to that bit for bit. *)

type stats = {
  mutable st_blocks : int;  (** straight-line runs translated *)
  mutable st_insns : int;  (** instructions translated *)
  mutable st_fused : int;  (** superinstruction pairs fused *)
  mutable st_slices : int;  (** run slices driven *)
}

type cache

val create_cache : unit -> cache
val stats : cache -> stats

val run :
  cache -> Machine.ctx -> mem:Memory.t -> text:Text.t -> fuel:int -> Machine.stop
(** Drop-in replacement for {!Machine.run}, translating lazily through
    [cache]. *)

(** {1 Static block partition}

    The partition the translator would produce, computed without
    executing — for [emdis --blocks] and the tests. *)

type block = {
  b_first : int;  (** instruction index of the leader *)
  b_last : int;  (** inclusive *)
  b_fused : int list;  (** indices heading a fused superinstruction *)
  b_batch : int;
      (** length of the micro-op batch heading the block: the register,
          immediate and frame-slot prefix the translator runs as one
          superblock; 0 when the prefix is too short to batch *)
}

val describe_blocks : Code.t -> block list
