(** The shared code repository.

    Stands in for the NFS-served object-code store of section 3.4: "we use
    NFS to create the illusion that the object code always resides in the
    local disk repository".  Code objects themselves come straight from
    the compiled program (every node shares the {!Emc.Compile.program});
    this module accounts for the fetches so the cost model can charge
    them. *)

type t

val create : ?n_nodes:int -> unit -> t
(** [n_nodes] (default 64) sizes the per-node fetch accounting, fixed
    at creation.  Capped by {!Ert.Oid.max_nodes}. *)

val record_fetch : t -> node:int -> unit
val fetches_by_node : t -> int -> int

val dispatch_cache : t -> node:int -> Isa.Dispatch.cache
(** The node's translated-code cache for the dispatch engine,
    kept with the code it translates: per node, and surviving node
    restarts (the engine's memory identity check voids tables of a dead
    kernel). *)

val bridge_cache : t -> node:int -> Ert.Bridge.t
(** The node's compiled bridge-fragment cache for cross-instance
    landings (the paper's repository likewise holds the bridging
    routines with the code).  Counters
    survive node restarts; the fragments are cleared by the restart path
    because they address kernel text. *)

val bridge_stats : t -> int * int
(** Summed (hits, misses) of every node's bridge-fragment cache. *)
