(** Descriptors of the four workstation architectures of the paper.

    An architecture bundles the machine-dependent properties that make
    heterogeneous thread mobility hard: instruction-set family, byte order,
    float format, register file, and performance.  The performance figures
    (clock and a rough MIPS rating) drive the virtual-time cost model used
    by the Table 1 reproduction; they correspond to the machines named in
    section 3.6 of the paper. *)

type family = Vax | M68k | Sparc

type t = {
  id : string;  (** short stable identifier, e.g. ["sun3"] *)
  name : string;  (** display name as in the paper, e.g. ["Sun-3"] *)
  family : family;
  endian : Endian.t;
  float_format : Float_format.t;
  clock_mhz : float;
  mips : float;
      (** effective throughput for kernel/protocol software, fitted to the
          paper's original-system Table 1 column; native-code speed is
          modelled separately, by instruction cycle counts at [clock_mhz] *)
  has_atomic_unlink : bool;
      (** the VAX can unlink an element from a doubly linked list atomically
          (REMQUE); the other processors need a system call (section 3.3) *)
}

val vax : t
(** VAXstation 2000, Ultrix; little-endian, VAX F floats. *)

val sun3 : t
(** Sun-3/100-class MC680x0 workstation, SunOS. *)

val hp9000_433 : t
(** "HP9000/300 1" of the paper: HP Apollo 9000/400 model 433s,
    33 MHz MC68040. *)

val hp9000_385 : t
(** "HP9000/300 2" of the paper: HP 9000/300 model 385, 25 MHz MC68030. *)

val sparc : t
(** SPARCstation SLC, 20 MHz. *)

val all : t list
(** All five architecture descriptors, in the order above. *)

val by_id : string -> t
(** Look up an architecture by [id]. @raise Not_found if unknown. *)

val family_name : family -> string
val equal : t -> t -> bool
val equal_family : family -> family -> bool
val pp : Format.formatter -> t -> unit

val cycle_time_ns : t -> float
(** Nanoseconds per clock cycle. *)

val same_layout : t -> t -> bool
(** Whether the two machines lay out thread state identically: the same
    family (activation-record packing), byte order and float format.
    Every machine here has 4-byte words.  Such a pair can exchange
    thread state by verbatim copy (the blit codec tier).  Compares the
    fields, never [id]. *)
