(** Bounded log-bucketed histogram (DDSketch-style).

    A mergeable quantile sketch whose memory is O(occupied buckets),
    independent of how many observations it has absorbed — the
    replacement for full-sample accumulators in long soaks.  Positive
    values land in geometric buckets [(γ^(i-1), γ^i]] with
    [γ = (1+α)/(1−α)] for a configured relative accuracy [α]; any
    quantile of the positive observations is answered within relative
    error ≤ [α] (each bucket's midpoint estimate [2γ^i/(γ+1)] is within
    [α] of every value the bucket can hold).  For values spanning
    [[vmin, vmax]] (positive) the sketch occupies at most
    [⌈log(vmax/vmin)/log γ⌉ + 1] buckets — e.g. ≈ 2100 buckets across
    eighteen decades at [α = 0.01] — regardless of sample count.  The
    buckets are one dense [int array] over the occupied index range,
    widened (at least doubled) when a value falls outside it, so a warm
    {!add} allocates nothing; the sum and extremes sit in unboxed float
    storage.

    Count, sum (hence mean), minimum and maximum are tracked exactly.
    Values ≤ 0 (and nan or infinite ones) are counted exactly in a
    dedicated zero bucket; the sketch is intended for non-negative
    measurements (latencies, sizes), so quantiles falling in the zero
    bucket answer the exact minimum (0 for all-zero data) rather than a
    bucket estimate.

    Two sketches with the same [α] {!merge} by bucket-wise addition —
    associative and commutative on counts and quantiles — which is what
    lets per-engine/replica/shard histograms aggregate into fleet-wide
    ones.  {!diff} subtracts an earlier snapshot of the {e same} stream,
    yielding the window's increment (the scrape layer's per-window
    histogram deltas). *)

type t

val create : ?accuracy:float -> unit -> t
(** Fresh empty sketch.  [accuracy] is the relative quantile error bound
    [α], in (0, 1); default [0.01] (1%). *)

val accuracy : t -> float
val gamma : t -> float

val add : t -> float -> unit
(** Record one observation.  O(1); allocates nothing once the bucket
    array covers the value. *)

val add_interval : t -> float array -> float array -> int -> unit
(** [add_interval t starts stops i] is [add t (stops.(i) -. starts.(i))]
    without boxing the value: the entry for callers that keep intervals
    in float arrays. *)

val count : t -> int
val zero_count : t -> int
(** Observations ≤ 0, nan or infinite (held exactly in the zero
    bucket). *)

val total : t -> float
(** Exact sum of all observations. *)

val mean : t -> float
(** Exact mean; [nan] when empty. *)

val min_value : t -> float
(** Smallest observation; [nan] when empty.  Exact, except on a {!diff}
    result where it is a bucket-resolution estimate for the window. *)

val max_value : t -> float
(** Largest observation; [nan] when empty (same caveat as
    {!min_value}). *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [[0,1]]: the value at nearest rank
    [⌈p·n⌉], within relative error ≤ {!accuracy} for positive data and
    clamped into [[min_value, max_value]]; [nan] when empty. *)

val bucket_count : t -> int
(** Occupied buckets (including the zero bucket when non-empty) — the
    memory-footprint measure. *)

val buckets : t -> (int * int) list
(** Occupied positive buckets as [(index, count)], ascending index.
    Bucket [i] covers [(γ^(i-1), γ^i]]. *)

val bucket_upper : t -> int -> float
(** Upper bound [γ^i] of bucket [i] — the OpenMetrics [le] label. *)

val copy : t -> t

val merge : t -> t -> t
(** Bucket-wise sum of two sketches (fresh result; arguments untouched).
    Raises [Invalid_argument] when accuracies differ. *)

val diff : cur:t -> base:t -> t
(** The increment from [base] to [cur], where [base] is an earlier
    {!copy} of the same stream as [cur] (every bucket of [base] must be
    ≤ its counterpart in [cur], else [Invalid_argument]).  Min/max of
    the result are bucket-resolution estimates — the true window
    extremes are not recoverable from cumulative state. *)
