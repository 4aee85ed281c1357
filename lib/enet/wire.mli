(** Network-format (machine-independent) data encoding.

    The commonly-agreed-upon format of section 2.1: big-endian
    ("network byte order") integers, IEEE 754 double reals, length-prefixed
    strings.  Three implementation tiers are provided for the §4 ablation:

    - [Naive] charges what the prototype's hand-written recursive-descent
      conversion routines cost, "not optimized for speed but for ease of
      maintenance": one conversion procedure call per byte plus one per
      datum (counted in the {!Conversion_stats}), averaging 1-2 calls per
      byte.
    - [Plan] is the bulk conversion the paper's future-work section
      hypothesises would cut the penalty by about half: one call per
      datum.
    - [Blit] is the common-layout tier: when source and destination
      have the same layout ({!Isa.Arch.same_layout}), the move codec runs
      {e batched} ({!Writer.batch}): each record it marks costs one
      conversion call over its bytes instead of one per datum, and
      translate/rebuild work is skipped at both ends.  Every pair that
      does not match, and all non-move traffic, behaves as [Plan].

    All tiers write and read identical octets through the same
    primitives and the same buffers; they differ only in what
    {!Conversion_stats} records. *)

type impl = Naive | Plan | Blit

val impl_name : impl -> string

val impl_of_string : string -> impl option
(** Recognizes ["naive"], ["plan"] and ["blit"]. *)

(** {1 Buffer views}

    A [view] is a length-delimited window onto a byte buffer.  Every
    message takes a fresh encode buffer, which {!Writer.handoff} gives
    to the network as a view without a copy; the receiver decodes the
    view and drops it. *)

type view = private {
  vw_bytes : Bytes.t;
  vw_off : int;
  vw_len : int;
}

val view_of_string : string -> view
(** Zero-copy: aliases the string's bytes.  The view must only be read. *)

val view_to_string : view -> string
(** Copies the window out into a fresh string. *)

val view_length : view -> int
val view_get : view -> int -> char

val sub_view : view -> pos:int -> len:int -> view
(** A sub-window sharing the same buffer. *)

(** {1 Record accounting}

    A codec marks the units a batched tier accounts as one: [let p =
    open_record w in ... close_record w p].  On a writer or reader that
    is not batched the boundary does nothing; on a batched one the datum
    charges in between are suspended and the record costs one conversion
    call over its bytes.  Records do not nest, and neither call
    allocates. *)

module Writer : sig
  type t

  val create : impl:impl -> stats:Conversion_stats.t -> t

  val batch : t -> unit
  (** Switches the writer to batched record accounting. *)

  val open_record : t -> int
  val close_record : t -> int -> unit

  exception Oversize of string
  (** A count, index or string length past the wire's 16 bits, named
      (["a string of 70000 bytes"]): the message cannot be written. *)

  val u8 : t -> int -> unit

  val u16 : t -> int -> unit
  (** @raise Oversize outside 0..65535: counts and indices are never
      truncated on the wire. *)

  val u32 : t -> int32 -> unit
  val i32 : t -> int32 -> unit

  val i32_bits : t -> int -> unit
  (** [i32] of the low 32 bits of an [int]: the same bytes and charge.
      A caller in another module passes an [int32] boxed (the dev
      profile compiles with [-opaque]); this form passes a word in a
      plain [int]. *)

  val f64 : t -> float -> unit
  val bool : t -> bool -> unit

  val str : t -> string -> unit
  (** u16 length prefix followed by the bytes.
      @raise Oversize beyond 65535 bytes. *)

  val length : t -> int

  val contents : t -> string
  (** Copies the accumulated bytes out; the writer stays usable. *)

  val handoff : t -> view
  (** Gives the buffer away as a view, without copying.  The writer is
      dead afterwards: writing to it again, or a second handoff, raises
      [Invalid_argument]. *)
end

module Reader : sig
  type t

  exception Underflow

  val create : impl:impl -> stats:Conversion_stats.t -> string -> t
  val of_view : impl:impl -> stats:Conversion_stats.t -> view -> t

  val batch : t -> unit
  (** Switches the reader to batched record accounting. *)

  val open_record : t -> int
  val close_record : t -> int -> unit
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int32
  val i32 : t -> int32

  val i32_bits : t -> int
  (** [i32] sign-extended into an [int]: the same bytes and charge. *)

  val f64 : t -> float
  val bool : t -> bool
  val str : t -> string

  val at_end : t -> bool
end
