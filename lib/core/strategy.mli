(** The search-strategy layer: the one definition of "what a search
    strategy is" that the driver, CLI, store, service and bench all
    share — the search analogue of the {!Method} registry.

    A strategy is a staged plan for spending ratings.  Every registered
    strategy runs through the same {!ctx} harness: candidates are rated
    via the [rate_many] batch hook (so the driver can fan them out over
    a domain pool deterministically), stage transitions are announced
    through the [enter_stage]/[leave_stage] hooks (so the driver can
    emit [search:<strategy>:stage<k>] spans), and the per-stage rating
    spend comes back as {!stage} records that land in [result.json].

    The headline entry is {!constructor:Staged} — the learned search from
    Zhu et al.'s multiple-phase tuning, adapted to the rating journal:
    stage 1 fits per-flag importances by ridge regression
    ({!Peak_util.Regression.ridge}) over a handful of random probes plus
    whatever rating corpus the attached store has accumulated; stage 2
    freezes the flags that screening found unimportant and runs
    {!Search.focused_elimination} over the surviving subset. *)

type t = Ie | Be | Ce | Random of int | Ff | Ose | Staged

val all : t list
(** Every registered strategy, in registry order ([Random] appears with
    its default sample count). *)

val name : t -> string
(** Human-readable display name, e.g. ["Iterative Elimination"]. *)

val key : t -> string
(** Canonical wire/CLI spelling: ["ie"], ["be"], ["ce"], ["random<n>"],
    ["ff"], ["ose"], ["staged"].  Stable across versions — session ids
    and store metadata embed it. *)

val keys : string list
(** [List.map key all]. *)

val of_string : string -> (t, string) result
(** Inverse of {!key}, case-insensitive; ["random"] alone means
    [Random 100] and ["random<n>"] any positive sample count.  This is
    the one parser behind the CLI's [-s]/[--search] and the service
    protocol's submit requests.  The error is a one-line
    ["unknown search ..."] message listing the valid spellings. *)

val describe : t -> string
(** One-sentence description for the [strategies] registry table. *)

val stage_plan : t -> string
(** Compact stage structure, e.g. ["screen -> refine"] for [Staged]. *)

type stage = {
  sg_label : string;  (** Stage label, e.g. ["screen"]. *)
  sg_ratings : int;  (** Rating-oracle invocations spent in this stage. *)
  sg_flags : int;  (** Size of the flag universe the stage worked on. *)
}
(** One stage boundary of a finished search, recorded into
    {!Driver.result} and codec v5 [result.json]. *)

type ctx = {
  threshold : float;  (** Relative-improvement acceptance threshold. *)
  seed : int;
      (** Experiment seed; strategies derive their private RNG streams
          from it (never from the rating oracle), so the candidate
          sequence is deterministic and independent of rating order. *)
  prepare : Search.prepare;
  rate_many : Search.rate_many option;
  relative : Search.relative;
  corpus : (Peak_compiler.Optconfig.t * float) list;
      (** Prior (configuration, relative-eval) observations drawn from
          the store's rating index, if one is attached.  Coarse evidence:
          entries are kept only when their eval looks like a plausible
          relative time (finite, within [0.25, 4.0]).  Deterministic
          order is the caller's responsibility. *)
  enter_stage : int -> string -> unit;
      (** [enter_stage k label] announces stage [k] (1-based); the driver
          opens a [search:<strategy>:stage<k>] span here. *)
  leave_stage : unit -> unit;
}
(** The harness every strategy runs against. *)

val make_ctx :
  ?threshold:float ->
  ?seed:int ->
  ?prepare:Search.prepare ->
  ?rate_many:Search.rate_many ->
  ?corpus:(Peak_compiler.Optconfig.t * float) list ->
  ?enter_stage:(int -> string -> unit) ->
  ?leave_stage:(unit -> unit) ->
  relative:Search.relative ->
  unit ->
  ctx
(** Convenience constructor (threshold 0.005, seed 11, no-op hooks,
    empty corpus) — the defaults {!Driver.tune} uses. *)

val run :
  t -> ctx -> Peak_compiler.Optconfig.t -> Peak_compiler.Optconfig.t * Search.stats * stage list
(** [run s ctx start] runs the strategy's full staged plan from a start
    configuration.  Every strategy calls [ctx.enter_stage]/
    [ctx.leave_stage] around every stage, routes its candidate scans
    through [ctx.rate_many] when present (all but [Ose]), and returns
    one {!stage} record per stage in execution order. *)

val staged_probe_count : trained:bool -> int -> int
(** Number of stage-1 screening probes [Staged] draws for an [n]-flag
    start configuration.  Untrained (no usable corpus): [max 8 ((n + 2)
    / 3)] — about a third of the ratings Batch Elimination's full scan
    would spend.  Trained (the corpus already holds at least [n]
    plausible observations for this benchmark/machine): [max 4 ((n + 7)
    / 8)] — the probes only recalibrate the fit. *)

val staged_keep_count : int -> int
(** Survivor count for a screen over [n] flags: the top
    [max 1 ((11n + 19) / 20)] (about 55%) flags by fitted importance
    move on to the refine stage. *)

val staged_screen :
  ctx -> Peak_compiler.Optconfig.t -> (Peak_compiler.Flags.t * float) list * int
(** Stage 1 of [Staged], exposed for tests: rate the screening probes,
    fold in the corpus, fit ridge importances, and return the surviving
    [(flag, importance)] list (positive importance estimates the
    relative-time increase from enabling the flag) together with the
    number of ratings spent.  The top [staged_keep_count]-ranked slice
    by fitted importance survives regardless of sign — a rank cut keeps
    interaction-only flags (near-zero main effect) alive, which a
    threshold cut would freeze.  A trained corpus (at least [n]
    plausible rows) sharpens the ranking and shrinks the probe budget.
    Survivors preserve {!Peak_compiler.Flags.all} order.  When every
    observation is non-finite (all probes quarantined and no usable
    corpus) the screen keeps every enabled flag, so stage 2 degrades to
    plain Combined Elimination rather than freezing the whole
    configuration. *)
