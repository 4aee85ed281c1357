(** Per-node text space.

    Loaded code objects are given disjoint base addresses well above data
    memory; an absolute program counter is [base + byte offset], so PC
    values for the same program point differ between nodes even of the
    same architecture — return addresses must always be translated through
    the bus-stop tables (or rebased) when a thread moves. *)

type image = {
  base : int;
  code : Code.t;
}

type t

val text_base : int
(** Lowest text address; data addresses stay below this. *)

val create : unit -> t

val load : t -> Code.t -> image
(** Load a code object, assigning it a fresh base.  Loading the same code
    object twice returns the existing image. *)

val none : image
(** What {!find} returns for an address in no image: based at -1 with
    empty code, so no address falls inside it.  Compare with [==]. *)

val find : t -> int -> image
(** The image containing the given absolute address, or {!none}: one
    bisection over the images in base order, allocating nothing. *)

val find_by_oid : t -> int32 -> image option
