(** Per-node cache of compiled bridge fragments.

    The paper's bridging mechanism (section 2.4) for migration between
    differently-optimized code instances: when an arriving thread is
    parked at a bus stop the target instance elided (-O2 loop-poll
    elision), the kernel synthesizes a fragment of real target-ISA code
    — [Poll stop; Jmp_abs resume] — that re-enters the instance at the
    stop's state-equivalence point without executing any source-level
    action.  Fragments are cached per (class code OID, stop id) and
    loaded into text under synthetic negative code OIDs (program OIDs
    are positive, so the spaces are disjoint). *)

type t

val create : unit -> t

val fresh_oid : t -> int32
(** Next synthetic fragment OID (negative, node-local). *)

val find : t -> code_oid:int32 -> stop_id:int -> int option
(** The base address of the class's fragment for the stop, if one is
    loaded; counts a hit or a miss. *)

val add : t -> code_oid:int32 -> stop_id:int -> int -> unit
(** Register a freshly loaded fragment's base address under the class's
    code OID and the stop it bridges. *)

val clear : t -> unit
(** Drop every fragment (hit/miss counters and the OID serial survive):
    fragment addresses point into kernel text, so a node restart must
    void them before reusing the cache. *)

val count : t -> int
val hits : t -> int
val misses : t -> int
