(** Descriptive statistics used by the rating harness.

    The paper's rating methods reduce windows of noisy timing samples to a
    rating EVAL and a confidence VAR (Section 3), identify and drop
    measurement outliers caused by system perturbation, and iterate until
    VAR falls under a threshold.  This module supplies those primitives. *)

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on empty input. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singleton input.
    @raise Invalid_argument on empty input. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val mean_list : float list -> float

val median : float array -> float
(** Median (average of middle two for even lengths); input is not
    modified.  @raise Invalid_argument on empty input. *)

val percentile : float array -> p:float -> float
(** [percentile a ~p] with [p] in [0,100], linear interpolation between
    order statistics.  @raise Invalid_argument on empty input or [p]
    outside the range. *)

val mad : float array -> float
(** Median absolute deviation (robust spread estimate). *)

val geometric_mean : float array -> float
(** Geometric mean; requires all elements positive. *)

(** {1 Streaming moments} *)

module Welford : sig
  (** Numerically stable streaming mean/variance (Welford's algorithm);
      used where windows are consumed incrementally so the harness can
      test convergence after every sample without rescanning. *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float

  (** Unbiased sample variance; 0 while fewer than two samples. *)

  val stddev : t -> float
  val merge : t -> t -> t
  (** Combine two disjoint sample streams (Chan's parallel update). *)
end

(** {1 Outlier handling} *)

val drop_outliers : ?k:float -> float array -> float array
(** [drop_outliers ~k a] removes samples farther than [k] robust standard
    deviations (1.4826·MAD) from the median — the paper's "measurements
    far away from the average ... resulting from system perturbations".
    Defaults to [k = 3.5].  If the MAD is zero (constant data) the input
    is returned unchanged.  Always keeps at least half of the samples:
    if the filter would drop more, the farthest-surviving ordering is
    used to retain the closest half. *)

val outlier_mask : ?k:float -> float array -> bool array
(** Mask form of {!drop_outliers}: [true] marks a kept sample. *)

(** {1 Reusable-buffer statistics}

    The rating loop recomputes median/MAD/mean/variance at every
    convergence check; the entry points above allocate fresh arrays per
    call.  A [Scratch.t] owns growable buffers reused across checks, and
    its operations return bit-identical results to the allocating forms
    (same fold orders, same outlier fallback).  Steady-state (buffers
    already grown, no pathological outlier spread, finite data) they
    allocate nothing.  Single-owner mutable state: use one per domain. *)
module Scratch : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val push : t -> float -> unit
  val length : t -> int
  val get : t -> int -> float

  val outlier_mask : ?k:float -> t -> unit
  (** {!outlier_mask} over the collected values, recording verdicts
      queryable via {!kept}.  Defaults to [k = 3.5].
      @raise Invalid_argument on an empty buffer. *)

  val kept : t -> int -> bool
  (** Verdict of the last {!outlier_mask} for index [i]. *)

  val kept_count : t -> int

  val kept_mean : t -> float
  (** Mean of the kept values, equal to [mean (drop_outliers a)].
      @raise Invalid_argument when nothing is kept. *)

  val kept_variance : t -> float
  (** Unbiased variance of the kept values, equal to
      [variance (drop_outliers a)]. *)
end

(** {1 Significance testing} *)

type welch = Insufficient_data | Equal | Welch of { t_stat : float; df : float }
(** Outcome of a Welch comparison.  [Insufficient_data] replaces the old
    silent [(0, 1)] answer: a sample with fewer than two points (or NaN
    summary statistics, e.g. from an all-NaN measurement window) carries
    no evidence either way, and pretending it showed "no difference"
    propagated into rating decisions.  [Equal] is the degenerate verdict
    for two constant samples with the same mean: both variances are
    zero, so no finite t statistic or honest degrees of freedom exists —
    the old [t_stat = 0, df = 1] answer misreported significance. *)

val welch_t_summary :
  mean1:float -> var1:float -> n1:int -> mean2:float -> var2:float -> n2:int -> welch
(** Welch's t statistic and Welch–Satterthwaite degrees of freedom for
    two independent samples given by their summary statistics.
    [Insufficient_data] when either sample has fewer than two points or
    any summary statistic is non-finite.  Both variances zero with equal
    means yields [Equal]; unequal means with zero variances yield a
    signed infinity ([neg_infinity] when [mean1 < mean2]) so that
    directional tests keep working on deterministic data. *)

val t_critical95 : df:float -> float
(** Two-sided 95% critical value of Student's t distribution,
    interpolated from a standard table (exact at the tabulated points,
    1.960 in the limit). *)

val significantly_less :
  mean1:float -> var1:float -> n1:int -> mean2:float -> var2:float -> n2:int -> bool
(** One-sided test at 97.5%: is population 1's mean credibly below
    population 2's?  [false] on {!Insufficient_data} — no evidence, no
    swap — and [false] on {!Equal} — exactly equal constants are never a
    win.  (Used by the adaptive engine to swap versions only on
    statistically real wins.) *)

(** {1 Aggregation helpers} *)

val windows : float array -> size:int -> float array array
(** Split samples into consecutive disjoint windows of [size]; a trailing
    partial window is discarded.  @raise Invalid_argument if
    [size <= 0]. *)
