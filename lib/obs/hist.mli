(** Log-bucketed (HDR-style) latency histograms over virtual
    microseconds.

    Samples are truncated to integer nanoseconds and bucketed with 16
    sub-buckets per power of two, so any reported quantile is the lower
    bound of a bucket at most ~6% below the true sample.  All state is
    integer, making histograms of identical sample streams identical —
    the determinism contract the pinned span tests check. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample, in virtual microseconds (negative clamps to 0). *)

val count : t -> int
val max_us : t -> float
(** The exact (un-bucketed) maximum sample. *)

val mean_us : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in (0, 100]: the bucket lower bound of the
    ceil(p% · count)-th smallest sample, in microseconds; 0 when empty. *)

val merge : into:t -> t -> unit
