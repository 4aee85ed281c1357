(** The program database of section 3.4.

    The prototype in the paper required the programmer to synchronise OID
    counters by hand so that semantically equivalent code objects compiled
    on different machines got the same OID; the paper proposes a program
    database as the production fix.  This is that database: OIDs are
    assigned deterministically from the program and class names, so
    compiling the same program for any architecture, any number of times,
    yields the same code-object OIDs. *)

type t

val create : unit -> t

val assign : t -> program:string -> class_name:string -> int32
(** Deterministic, collision-free OID for a code object.  Calling again
    with the same names returns the same OID. *)

val lookup : t -> int32 -> (string * string) option
(** [(program, class_name)] registered under an OID. *)

val count : t -> int
