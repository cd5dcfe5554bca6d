(** Online, adaptive tuning — the scenario of Section 6, under drift.

    The paper demonstrates offline tuning but stresses that the rating
    methods "are also applicable to an online, adaptive optimization
    scenario ... facilitating dynamic tuning of applications that are
    very long running, or that exhibit different behavior across their
    execution time."  This engine realizes that scenario on the ADAPT
    mechanism of Figure 6: per context, a {e best} and an {e experimental}
    code version are kept and dynamically swapped; new experimental
    versions arrive asynchronously from a remote optimizer with a compile
    latency, are rated in place with the context-aware machinery, and
    replace the best on a win.

    {b Staleness.}  A tuned configuration is only as good as the input
    distribution it was rated on.  Each context slot therefore freezes a
    {e baseline} (the incumbent's rating-time mean and variance) and keeps
    a sliding window of its recent production samples; a Welch comparison
    of window against baseline — the significance machinery the
    consistency experiment is built on, confirmed by the window's
    {!Peak_util.Regression.pearson} trend — drives a per-slot state
    machine:

    {v Fresh --regression--> Suspect --confirmed--> (Stale) --> Re-tuning --done--> Fresh
      ^                        | window recovers                   |
      +------------------------+----------------------------------+ v}

    A [Stale] verdict re-opens candidate exploration for that context
    only — service never pauses; the other contexts keep their tuned
    versions — re-rates the incumbent in the new regime, and counts the
    invocations until exploration drains as that context's
    time-to-readapt.

    Unlike the offline driver there is no separate tuning phase: every
    invocation is production work, and the engine's quality measure is
    the total cycles the application spent, compared against running -O3
    throughout and against a drift-aware oracle that picks each
    invocation's cheapest version.

    Observability: the engine bumps [adaptive.swaps], [adaptive.stale]
    and [adaptive.readapt_invocations] counters through [Peak_obs] and
    emits an [adaptive:stale] instant per detection. *)

type t

type stats = {
  invocations : int;
  total_cycles : float;  (** Everything the application spent, experiments included. *)
  o3_cycles : float;  (** The same invocations under -O3 throughout. *)
  oracle_cycles : float;
      (** The same invocations under each invocation's cheapest candidate
          (noise-free evaluation) — the drift-aware adaptivity target. *)
  swaps : int;  (** Times a context's best version changed. *)
  contexts_seen : int;
  choices : (float array * Peak_compiler.Optconfig.t) list;
      (** Final best configuration per context key. *)
  stale_detections : int;  (** Stale verdicts across all contexts. *)
  stale_invocations : int list;
      (** Invocation index of each stale verdict, sorted ascending —
          compared against the drift spec's declared shift points by the
          differential tests. *)
  readapts : int;  (** Re-tuning cycles that ran to completion. *)
  mean_time_to_readapt : float;
      (** Mean invocations from a stale verdict to the context's
          exploration draining; [nan] when no re-tuning completed. *)
  readapt_invocations : int;
      (** Production invocations served while their context was
          re-tuning (service continues during re-tuning; this is the
          exposure, not a pause). *)
  fresh_cycles : float;  (** Cycles spent in each state — the per-phase ledger. *)
  suspect_cycles : float;
  retuning_cycles : float;
  p99_invocation_cycles : float;
      (** 99th-percentile noise-free invocation cost — the tail a drift
          burst or an unlucky experiment inflates; [nan] before the
          first invocation. *)
}

val create :
  ?seed:int ->
  ?window:int ->
  ?compile_latency:int ->
  Tsection.t ->
  Peak_workload.Trace.t ->
  Peak_machine.Machine.t ->
  candidates:Peak_compiler.Optconfig.t list ->
  t
(** [window] is the samples needed per (context, version) rating before a
    swap decision (default 12); [compile_latency] the invocations a
    requested version spends at the remote optimizer before it can be
    swapped in (default 25, per ADAPT's asynchronous dynamic
    compilation).  [candidates] are explored in order, per context, with
    -O3 as the initial best.

    A staleness verdict needs a context's recent window to regress
    against its rating-time baseline by more than 10%, and to be
    statistically credibly worse (one-sided Welch at 97.5%), in two
    consecutive windows (Fresh → Suspect → Stale), so measurement noise
    does not trigger spurious re-tuning.  Only upward shifts are
    detected: a workload that gets cheaper keeps its tuned versions. *)

val run : t -> invocations:int -> stats
(** Drive the application for the given number of invocations.  [run]
    may be called repeatedly; states, ratings and the cycle ledger carry
    over, and the returned stats cover the whole life of [t]. *)
