(** The Performance Tuning Driver (Section 4.2, step 5).

    Ties everything together for one (benchmark, machine, rating method,
    dataset) cell of the paper's Figure 7, in four phases: profile the
    tuning section, resolve the rating method, search the optimization
    space, summarize.  Every candidate version is rated with the
    selected method and every simulated cycle — TS executions,
    instrumentation, RBR re-execution overheads, compile stalls, and the
    non-TS portion of each program run — is charged to the tuning-time
    ledger.

    There is one rating scheme, with one interpretation per session.
    Each rating runs on its own runner, seeded from the tuning seed, the
    candidate's batch index and the configuration's identity (and, for
    relative methods, the base's), so a rating never depends on which
    domain ran it or on what was rated before it.  Every runner of the
    session — ratings, probes and the fault oracle — reads one shared
    {!Tape} over a fresh copy of the trace: each invocation ordinal is
    interpreted once, whichever rating reaches it first, and every other
    rating replays the recorded counts under its own noise and memory
    state.  A batch of candidates runs concurrently on the pool
    ([List.map] without one), and the outcomes are folded into the
    session in submission order.  At that fold:
    - the ledger charges each job's executions, and the compile stall
      its version waited for (see [compile] at {!tune});
    - the session is charged ⌈Σ invocations ÷ trace length⌉ program
      runs, as if all ratings ran back to back in one program run —
      the paper's accounting, which rates many versions per run.

    Rating methods themselves live in {!Method} (the registry) — the
    driver only distinguishes {!Method.prepared} shapes (absolute vs
    relative), never individual methods.  When no method is forced the
    driver walks the consultant's applicable chain with the §3 fallback
    protocol: each method but the chain's last is probed by rating the
    start configuration once, and a non-converged probe falls through to
    the next method.  Every attempt — failed probes and the committed
    method — is recorded in {!result.attempts}. *)

type result = {
  benchmark : Peak_workload.Benchmark.t;
  machine : Peak_machine.Machine.t;
  dataset : Peak_workload.Trace.dataset;
  method_used : Method.t;
  attempts : Method.attempt list;
      (** The §3 fallback chain as executed: zero or more non-converged
          probe attempts followed by the committed method.  A forced
          [?method_] yields a single-attempt list. *)
  strategy : Strategy.t;
      (** The search strategy that produced {!result.best_config} —
          recorded in [result.json] (codec v5) as its canonical key. *)
  stages : Strategy.stage list;
      (** The strategy's stage boundaries as executed: per-stage rating
          spend and flag-universe size, in order.  One entry for the
          classic single-stage searches; [screen]/[refine] for
          [Staged].  Serialized alongside [strategy]. *)
  best_config : Peak_compiler.Optconfig.t;
  search_stats : Search.stats;
  tuning_cycles : float;  (** Simulated cycles spent tuning. *)
  tuning_seconds : float;
  passes : int;  (** Program runs charged: ⌈[invocations] ÷ trace length⌉. *)
  invocations : int;
  quarantined : (Peak_compiler.Optconfig.t * string) list;
      (** Configurations condemned under fault injection, in submission
          order, each with its reason (["crashed"], ["hung"],
          ["wrong-output"]).  Empty without [?faults]. *)
  fault_retries : int;
      (** Transient-failure retries absorbed across the session —
          charged to the tuning ledger like any other execution.  [0]
          without [?faults]. *)
  metrics : Peak_store.Codec.metrics;
      (** Deterministic per-method accounting (ratings produced and
          invocations consumed per method, quarantine/retry totals,
          session-wide invocation and cycle charges).  Computed from the
          rating outcomes in submission order — never from wall-clock
          time or the tracer — so it is bit-identical for traced and
          untraced runs, every domain count, and kill/resume.
          Serialized as the [metrics] block of [result.json] (store
          codec v4).  Wall-clock observability (phase timings, queue
          depths, journal fsync costs) lives in {!Peak_obs} instead. *)
  profile : Profile.t;
  advice : Consultant.advice;
}

val result_summary : result -> Peak_store.Codec.session_result
(** The durable summary a completed session stores ([result.json]):
    method used, attempted-method chain, best configuration, search
    statistics and trajectory, and the tuning-time ledger.  Profile and
    advice are recomputed deterministically on resume, so they are not
    persisted. *)

val session_meta :
  ?method_:Method.t ->
  ?strategy:Strategy.t ->
  ?rating_params:Rating.params ->
  ?threshold:float ->
  ?seed:int ->
  ?start:Peak_compiler.Optconfig.t ->
  ?faults:Peak_sim.Fault.t ->
  Peak_workload.Benchmark.t ->
  Peak_machine.Machine.t ->
  Peak_workload.Trace.dataset ->
  Peak_store.Codec.session_meta
(** Canonical store metadata (including the deterministic session id)
    for a {!tune} call with the same parameters — what a CLI or library
    caller passes to {!Peak_store.Session.open_} before tuning with
    [?store].  Defaults mirror {!tune}'s. *)

type session_args = {
  sa_benchmark : Peak_workload.Benchmark.t;
  sa_machine : Peak_machine.Machine.t;
  sa_dataset : Peak_workload.Trace.dataset;
  sa_strategy : Strategy.t;
  sa_method : Method.t option;  (** [None]: auto. *)
  sa_params : Rating.params;
  sa_threshold : float;
  sa_seed : int;
  sa_start : Peak_compiler.Optconfig.t;
  sa_faults : Peak_sim.Fault.t option;
}
(** The arguments of a {!session_meta} (and {!tune}) call. *)

val session_args : Peak_store.Codec.session_meta -> (session_args, string) Stdlib.result
(** Decode stored metadata into the arguments that produced it: passing
    them back to {!session_meta} yields the same record.  This is the
    one recipe by which the CLI's [session resume] and the daemon's
    resume rebuild a session, so both resume bit-identically.  The error
    is a one-line message naming the unreadable field (an unknown name,
    rating parameters or a fault plan that do not parse). *)

val tune :
  ?seed:int ->
  ?strategy:Strategy.t ->
  ?rating_params:Rating.params ->
  ?threshold:float ->
  ?compile:Optimizer.mode * float ->
  ?pool:Peak_util.Pool.t ->
  ?method_:Method.t ->
  ?store:Peak_store.Session.t ->
  ?start:Peak_compiler.Optconfig.t ->
  ?kb:Peak_store.Kb.t ->
  ?faults:Peak_sim.Fault.t ->
  ?retries:int ->
  ?progress:(ratings:int -> fresh:int -> unit) ->
  Peak_workload.Benchmark.t ->
  Peak_machine.Machine.t ->
  Peak_workload.Trace.dataset ->
  result
(** Run one full offline tuning session.

    [kb] plugs the collaborative knowledge base in twice: its top
    recommendation ({!Knowledge.start}) becomes the warm-start
    configuration when neither [start] nor a store session supplies
    one, and its rows for this benchmark × machine join the [Staged]
    strategy's training corpus (after the store-index rows, in the KB's
    canonical order).  A store-backed session never takes its start
    from [kb] — pass the recommendation as an explicit [start] recorded
    in the session meta, as the CLI's [--kb] and [--warm] do, so resume
    stays KB-independent.

    [strategy] selects the search plan from the {!Strategy} registry —
    default Iterative Elimination.  The chosen strategy and its executed
    stage boundaries are recorded in {!result.strategy}/{!result.stages}
    (and in [result.json], codec v5), each stage runs under a
    [search:<key>:stage<k>] span, and the [Staged] strategy additionally
    trains its screening regression on the attached store's rating index
    (rebuilt only by [session gc], so kill/resume replays stage
    transitions bit-identically).

    [method_] may force a method the consultant would not choose (the
    Figure-7 bars include such cells, e.g. MGRID under CBR); forcing is
    exempt from fallback — the chain is just that method, never probed.
    Forcing CBR on a section whose context analysis failed raises
    {!Method.Not_applicable}.

    Omitted, the method is resolved by the §3 fallback protocol over the
    consultant's applicable chain (from the session's own profiling
    pass; no second profile is run): each chain method except the last
    is probed by rating the start configuration once with the method's
    rater; if the probe's VAR fails to converge within the rating
    invocation cap (or the rater finds no samples at all), the method is
    abandoned and the next applicable one is tried.  RBR — relative,
    always last among applicable auto methods — is never probed.  The
    probe is exactly the search's base rating (same seed, same store
    key, same fold position), so a converged first probe makes the auto
    run bit-identical to forcing the chosen method.

    [compile] models the Remote Optimizer: (mode, seconds-per-version);
    omitted, compiles are free (the default the Figure-7 numbers use,
    matching the paper's tuning-time accounting, which counts program
    runs).  Strategies prefetch each iteration's candidates; each
    rating's compile stall is charged at its fold position, after every
    earlier rating has advanced the ledger clock — [Local] stalls for
    the whole compile, [Remote] only for what the overlapped compile
    server has not finished.

    [pool] rates each batch's candidates concurrently; the result (best
    configuration, attempted chain, search stats, tuning-cycle ledger)
    is bit-identical for every domain count and to a run without a
    pool.

    [store] logs every rating event — fallback probes included, with
    their convergence flag — to a persistent session
    ({!Peak_store.Session}) and serves already-stored ratings from it —
    value and consumed resources both, folded at the same position a
    fresh rating would occupy — so re-running (resuming) a killed
    session replays instantly up to the interruption point, {e including
    every fallback decision and compile stall}, and then continues, with
    final results bit-identical to an uninterrupted run and to a run
    without a store.  On completion the session's [result.json] is
    written automatically; closing the session remains the caller's
    job.

    [start] overrides the search's start configuration (default [-O3];
    a store session's recorded start — e.g. a warm start from the
    knowledge base — wins over the default when [store] is given).

    [faults] subjects every candidate execution to the given
    {!Peak_sim.Fault} plan and makes the driver fault-tolerant: the
    start configuration is protected (tuning always completes and
    anchors the output oracle), every other configuration's output is
    validated against the base version's digest before rating, and
    failed executions are retried on fresh attempt-keyed runners up to
    [retries] (default 2) times, every attempt charged to the tuning
    ledger.  Configurations that keep failing or produce wrong output
    are quarantined — rated [+infinity] so no search adopts them — and
    reported in {!result.quarantined} (and, with [store], journaled so
    a resumed session replays the quarantine decisions).

    [progress] is called after each rating is folded into the session,
    always on the calling domain (never inside a pool worker), with
    cumulative totals: [ratings] counts every rating including ones
    replayed from [store], [fresh] only freshly computed ones — the
    quantity a fair-share scheduler should charge, since replays cost
    nothing.  The callback is observational (its return value is unit
    and nothing reads it back), but it may {e raise} to abort the
    session: every callback point leaves the store journal consistent,
    so an aborted store-backed session resumes bit-identically.  This is
    the hook the tuning service daemon uses for streamed progress,
    fair-share budgets and cancellation. *)

val tune_suite :
  ?seed:int ->
  ?strategy:Strategy.t ->
  ?rating_params:Rating.params ->
  ?threshold:float ->
  ?method_:Method.t ->
  ?domains:int ->
  ?store_dir:string ->
  ?faults:Peak_sim.Fault.t ->
  ?retries:int ->
  Peak_workload.Benchmark.t list ->
  Peak_machine.Machine.t ->
  Peak_workload.Trace.dataset ->
  result list
(** Tune a list of benchmarks concurrently on a [domains]-wide pool
    (default 1).  The benchmarks themselves are distributed over the pool
    and each session also fans its candidate scans out on the same pool
    (nested batches are safe: {!Peak_util.Pool.map} callers help drain
    the queue).  Results are in benchmark order and bit-identical for
    every value of [domains].

    [store_dir] opens (or resumes) one persistent session per benchmark
    under that store directory, as {!tune}'s [store] does for a single
    session; each session has its own journal file with a serialized
    writer, so concurrent domain runners log safely.
    @raise Failure if a session cannot be opened (e.g. it exists with
    different parameters). *)

val auto_method : Profile.t -> Tsection.t -> Method.t
(** The consultant's first choice — the head of the fallback chain
    {!tune} walks when no method is forced. *)

(** {1 Evaluation by Eq. 1}

    Deterministic evaluation times a configuration over one noise-free
    pass of a dataset: no measurement noise or spikes, no cache-flushing
    context switches, no memory-conflict jitter.  On such a pass an
    invocation's time is its block counts dotted with the version's
    per-block cycles, plus a memory charge that reads only the
    interpreter's accesses — so the pass's section time under any
    configuration [v] is [C·c(v) + M], where [C] (block counts summed
    over the pass) and [M] (memory cycles summed over the pass) do not
    depend on [v].  This is the paper's Eq. 1 over a whole pass.  A
    {!pass_summary} holds [C] and [M] from one interpretation of the
    pass, and prices each configuration with one compile and one dot
    product. *)

type pass_summary
(** [C] and [M] for one (benchmark, machine, dataset, seed) pass. *)

val pass_summary :
  ?seed:int ->
  Peak_workload.Benchmark.t ->
  Peak_machine.Machine.t ->
  Peak_workload.Trace.dataset ->
  pass_summary
(** Interpret one noise-free pass over [benchmark.trace dataset ~seed]
    (default seed 5) — the only interpretation the summary needs. *)

val summary_section_cycles : pass_summary -> Peak_compiler.Optconfig.t -> float
(** The tuning section's cycles over the pass: [C·c(v) + M]. *)

val summary_program_cycles : pass_summary -> Peak_compiler.Optconfig.t -> float
(** Whole-program cycles: the section's plus the program's non-TS time,
    which no configuration changes (only the TS is re-optimized) and
    which is derived from -O3's section time and the benchmark's time
    share. *)

val summary_improvement_pct : pass_summary -> best:Peak_compiler.Optconfig.t -> float
(** Whole-program improvement of [best] over -O3 in percent —
    [ (T(-O3)/T(best) - 1) · 100 ], the quantity of Figure 7 (a)/(b).
    Exactly [0.0] for [best] = -O3. *)

val evaluate_program_cycles :
  ?seed:int ->
  Peak_workload.Benchmark.t ->
  Peak_machine.Machine.t ->
  Peak_compiler.Optconfig.t ->
  Peak_workload.Trace.dataset ->
  float
(** {!summary_program_cycles} on a summary built for this one call.
    A caller pricing several configurations on the same pass should hold
    a {!pass_summary} instead. *)

val improvement_pct :
  ?seed:int ->
  Peak_workload.Benchmark.t ->
  Peak_machine.Machine.t ->
  best:Peak_compiler.Optconfig.t ->
  Peak_workload.Trace.dataset ->
  float
(** {!summary_improvement_pct} on a summary built for this one call: one
    interpretation of the pass serves both [best] and -O3, and the result
    equals pricing [best] from a held summary of the same pass, bit for
    bit. *)
