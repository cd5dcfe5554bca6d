(** Deterministic pseudo-random number generation.

    All randomness in the reproduction flows through this module so that
    every experiment is reproducible from a single integer seed.  The
    generator is splitmix64, which is small, fast, and has no measurable
    bias for the statistical loads used here (noise injection, workload
    context generation, search tie-breaking).

    The 64-bit state is kept unboxed, in place, so a draw allocates
    nothing beyond a returned [float] or [int64] the caller boxes: the
    noise draws of every rating, the per-invocation values a trace draws
    at construction and the memory system's jitter all run through here.
    A generator is mutable and not domain-safe: give each domain its own
    ({!split} or {!copy}). *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    subsequent streams are independent for practical purposes.  Used to
    give sub-systems (noise, traces, search) their own streams so that
    adding draws in one does not perturb the others. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate by Box–Muller (one draw per call; the antithetic pair
    is discarded to keep the stream position simple to reason about). *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (mean [1/rate]). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element.  @raise Invalid_argument on empty array. *)
