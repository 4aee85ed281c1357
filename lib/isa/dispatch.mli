(** Pre-decoded execution: the fetch/decode interpreter's fast
    replacement.

    Each path through a code image is translated once, on first
    execution, into an array of int-domain micro-ops — operand
    addressing modes, the SPARC [%g0] rule and register bounds resolved
    at translation — that one loop runs straight on the register file.
    A path runs on through each conditional branch (a side exit when
    taken) and into each unconditional branch's target, until a dynamic
    transfer, a system call, a halt, an instruction it already holds or
    another path's head; a static branch chains into its target's path.
    Cycles and instructions settle from the path's prefix sums at each
    exit.  Translations are cached per code object in a {!cache} (one
    per kernel, handed out by the code repository) and are valid only
    for the memory and load address they were built against.

    The engine is observationally identical to {!Machine.run}: same
    stops, same traps (including mid-instruction PC placement), same
    cycle and instruction counters, same fuel accounting, same
    {!Machine.stop} and eviction-trap semantics.  The tier-1 trace tests
    hold it to that bit for bit. *)

type stats = {
  mutable st_paths : int;  (** paths translated *)
  mutable st_insns : int;
      (** instructions translated, once per path holding them *)
  mutable st_slices : int;  (** run slices driven *)
}

type cache

val create_cache : unit -> cache
val stats : cache -> stats

val run :
  cache -> Machine.ctx -> mem:Memory.t -> text:Text.t -> fuel:int -> Machine.stop
(** Drop-in replacement for {!Machine.run}, translating lazily through
    [cache]. *)

(** {1 Static paths}

    The paths the translator builds, found by its own walk without
    executing — for [emdis --blocks]. *)

type path_info = {
  pi_insns : int list;
      (** instruction indices in the order the path runs them; the
          first is its head *)
  pi_exits : int list;  (** byte offsets its conditional branches leave for *)
  pi_next : int;
      (** byte offset it runs off to, or -1 when it ends in a dynamic
          transfer, a system call or a halt *)
}

val describe_paths : Code.t -> path_info list
(** The paths headed at every method entry and every point a thread
    resumes at (after a call or a system call, at a parked poll), each
    followed at once by the paths headed at its fall-through and then
    at its side exits. *)
