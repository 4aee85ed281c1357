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
    primitives; they differ only in what {!Conversion_stats} records,
    and in that the naive writer takes a fresh buffer instead of one
    from the {!Pool}. *)

type impl = Naive | Plan | Blit

val impl_name : impl -> string

val impl_of_string : string -> impl option
(** Recognizes ["naive"], ["plan"] and ["blit"]. *)

(** {1 Buffer views}

    A [view] is a length-delimited window onto a byte buffer.  Encoders
    can hand a pooled buffer off as a view instead of copying it into a
    fresh string ({!Writer.handoff}); the network delivers the view and
    the receiver returns the buffer to the pool after decoding
    ({!release_view}). *)

type view = private {
  vw_bytes : Bytes.t;
  vw_off : int;
  vw_len : int;
  vw_pooled : bool;  (** buffer came from the pool; release after use *)
}

val view_of_string : string -> view
(** Zero-copy: aliases the string's bytes.  The view must only be read. *)

val view_to_string : view -> string
(** Copies the window out into a fresh string. *)

val view_length : view -> int
val view_get : view -> int -> char

val sub_view : view -> pos:int -> len:int -> view
(** A sub-window sharing the same buffer.  The result is never pooled:
    releasing a sub-view must not recycle the parent's buffer. *)

val release_view : view -> unit
(** Returns a pooled view's buffer to the free list; no-op otherwise.
    Call at most once, after the last read. *)

(** {1 The buffer pool}

    A global free list of encode buffers for the [Plan] and [Blit]
    tiers; a [Naive] writer never touches it.  [Writer.create] takes a
    buffer from the pool (a {e hit}) or allocates fresh (a {e miss});
    [Writer.free] and [release_view] return buffers.  [handoffs] counts
    payloads handed to the network without the copy that
    [Writer.contents] would have made. *)
module Pool : sig
  val hits : unit -> int
  val misses : unit -> int
  val handoffs : unit -> int

  val returned : unit -> int
  (** Buffers given back ([Writer.free] of a pooled writer, or
      {!release_view} of a pooled view) — counted even when the free
      list is full and the buffer is dropped. *)

  val in_flight : unit -> int
  (** [hits + misses - returned]: pool-acquired buffers not yet given
      back.  Zero at quiescence; a persistent positive value is a leak
      (a buffer lost on an exception path between acquisition and
      free/handoff-release). *)

  val reset : unit -> unit
  (** Clears counters {e and} the free list (for test isolation). *)
end

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

  val u8 : t -> int -> unit

  val u16 : t -> int -> unit
  (** @raise Invalid_argument outside 0..65535: counts and indices are
      never truncated on the wire. *)

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
      @raise Invalid_argument beyond 65535 bytes. *)

  val length : t -> int

  val contents : t -> string
  (** Copies the accumulated bytes out; the writer stays usable. *)

  val free : t -> unit
  (** Recycles the buffer into the pool.  The writer is dead afterwards. *)

  val handoff : t -> view
  (** Transfers the buffer to a pooled view without copying.  The writer
      is dead afterwards. *)
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
