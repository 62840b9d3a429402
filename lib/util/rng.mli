(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    test and benchmark is reproducible from a seed.  The generator is
    splitmix64, which is fast, has a 64-bit state, and supports cheap
    splitting for independent per-worker streams. *)

type t
(** Mutable generator state. *)

val make : int -> t
(** [make seed] creates a generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t].  Streams
    produced by [split] are statistically independent of the parent. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val int_incl : t -> int -> int -> int
(** [int_incl t lo hi] is uniform in [\[lo, hi\]].  Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

type zipf
(** Precomputed Zipf distribution over [\[0, n)]. *)

val zipf : n:int -> theta:float -> zipf
(** [zipf ~n ~theta] builds a Zipf(theta) distribution over [n] items.
    [theta = 0.] degenerates to uniform. *)

val zipf_sample : zipf -> t -> int
(** Sample an index in [\[0, n)]; smaller indexes are hotter. *)

val nurand : t -> a:int -> x:int -> y:int -> int
(** TPC-C NURand(A, x, y) non-uniform random, with C fixed to a constant
    derived from [a] (sufficient for workload generation). *)
