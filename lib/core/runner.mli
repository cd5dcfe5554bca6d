(** Execution harness: drives a tuning section through its invocation
    trace under dynamically swapped code versions, the way PEAK's
    instrumented application does during tuning (Section 4.2).

    The runner is a timing layer over a {!Tape}: the tape interprets each
    invocation once (its class cache reusing results when the trace
    declares classes), and the runner turns the recorded block counts
    and per-base touch counts into a version's time — Eq. 1's dot
    product plus a {!Peak_machine.Memsys} charge over the section's base
    slots ({!Tsection.bases}), with the bytes per slot resolved once at
    creation.  The runner owns the simulated machine state
    (memory system, noise stream, perturbation draws), the fault plan,
    the tuning-time ledger and the pass bookkeeping.  All raters consume
    invocations through {!step} (one timed execution of one version) or
    {!step_pair} (RBR's save / precondition / restore / time / restore /
    time sequence).  Runners that share a tape — a tuning session's
    ratings — read one interpretation per invocation ordinal, and each
    produces the samples it would on a tape of its own.

    Pass boundaries rerun the trace initializer and flush the memory
    system (a fresh program run starts cold).  Mid-pass, rare simulated
    context switches flush the cache too — the perturbation that biases
    basic RBR and that the improved method's preconditioning execution
    absorbs (Section 2.4.2). *)

type t

type failure =
  | Crashed  (** The version died mid-invocation (injected or transient). *)
  | Hung  (** The invocation outlived the watchdog budget. *)

type failure_info = {
  failure : failure;
  config : string;  (** Digest of the configuration that failed. *)
  invocation : int;  (** 0-based invocation ordinal within this runner. *)
}

exception Failed of failure_info
(** The typed outcome of an execution the harness could not complete.
    By the time it is raised the ledger already carries the cost of the
    doomed run (the executed cycles for a crash, the full watchdog
    budget for a hang), so retrying callers charge failures naturally. *)

val create :
  ?seed:int ->
  ?context_switch_rate:float ->
  ?faults:Peak_sim.Fault.t ->
  ?fault_attempt:int ->
  ?invocation_budget:float ->
  Tsection.t ->
  Peak_workload.Trace.t ->
  Peak_machine.Machine.t ->
  t
(** A runner on a private tape over [trace] ({!Tape.of_trace}), which it
    consumes.

    [context_switch_rate] is the per-invocation probability of a
    cache-flushing perturbation (default 0.02).

    [faults] subjects every execution to the fault plan: config-keyed
    crashes/hangs and per-attempt transients surface as {!Failed},
    noise bursts multiply measured times, and {!output_digest} reports
    corrupted output for miscompiled configurations.  [fault_attempt]
    (default 0) is the retry ordinal the plan keys transient decisions
    on — a retrying caller passes a fresh attempt number to redraw them.

    [invocation_budget] is the per-execution watchdog in cycles: an
    execution that exceeds it raises [Failed Hung] with the budget
    charged to the ledger.  Defaults to infinity without [faults] (the
    pre-fault runner, bit-identical) and to [1e8] cycles with them. *)

val of_tape :
  ?seed:int ->
  ?context_switch_rate:float ->
  ?faults:Peak_sim.Fault.t ->
  ?fault_attempt:int ->
  ?invocation_budget:float ->
  Tape.t ->
  Peak_machine.Machine.t ->
  t
(** A runner reading [tape] from ordinal 0, with {!create}'s options.
    On a {!Tape.shared} tape its times, counts, contexts and ledger
    equal those of a runner created on a fresh copy of the trace. *)

val machine : t -> Peak_machine.Machine.t
val tsection : t -> Tsection.t

(** {1 Steps}

    Every step reads one invocation: advance to it, read its [context]
    sources (charging a few instrumentation cycles per source), consult
    the fault plan, then time the execution, drawing noise and memory
    state in that order.  What a step read is {e lent} until the
    runner's next step: {!counts} (the tape's result, {!Tape.result})
    and {!context} may be overwritten by it.  A reader that keeps either
    past its next step copies it — the profile its count samples and
    context values, {!Adaptive} its slot keys — and no reader mutates
    them.  The context sources are resolved to handles once, and again
    only when a step names a different list (physically) than the
    last. *)

val step :
  ?context:Peak_ir.Expr.source list -> t -> Peak_compiler.Version.t -> float
(** Advance to the next invocation, read [context] (default none) and
    execute the invocation under the version: its measured (noisy)
    time. *)

val step_choose :
  context:Peak_ir.Expr.source list ->
  t ->
  (float array -> Peak_compiler.Version.t) ->
  float
(** {!step}, with the version the callback picks for the invocation's
    context (lent, as {!context}) — the dynamic swap of the online
    scenario. *)

val counts : t -> int array
(** Block entry counts of the invocation the last step read, lent. *)

val context : t -> float array
(** Values of the last step's context sources, in order, lent; empty
    when it read none. *)

val step_pair :
  ?improved:bool ->
  ?use_ranges:bool ->
  t ->
  base:Peak_compiler.Version.t ->
  experimental:Peak_compiler.Version.t ->
  float * float
(** One RBR invocation: returns (base time, experimental time).  With
    [improved] (default true) a preconditioning execution warms the cache
    first and the two versions alternate execution order across
    invocations; without it, the first-executed version pays any cold
    cache and the order is fixed — the bias the paper's Section 2.4.2
    corrects.  Save/restore of the modified input set is charged per the
    liveness analysis. *)

val step_batch :
  ?use_ranges:bool ->
  t ->
  base:Peak_compiler.Version.t ->
  experimentals:Peak_compiler.Version.t list ->
  float * float list
(** One invocation rating the base and several experimental versions
    back to back — Section 2.4.2's batching optimization.  One save and
    one preconditioning run serve the whole batch; each version adds a
    restore plus its timed execution.  Returns the base time and the
    experimental times in order. *)

val charge_overhead : t -> float -> unit
(** Add instrumentation cycles (counter updates, context reads) to the
    tuning-time ledger. *)

val run_full_pass : t -> Peak_compiler.Version.t -> float
(** Execute every remaining invocation of the current pass under one
    version and return the summed TS time — the WHL primitive. *)

val pass_terms : t -> int array * float
(** Consume the invocations {!run_full_pass} would and return the two
    terms of their time that no version changes: the block-entry counts
    summed over them, [C], and the memory system's cycles summed over
    them, [M] (the charge every timed execution pays).  On a noise-free
    machine without faults, [run_full_pass t v] equals
    [Version.invocation_cycles v ~counts:C +. M] up to float
    reassociation — Eq. 1 over a whole pass.  Nothing is charged to the
    tuning-time ledger. *)

val output_digest : t -> Peak_compiler.Version.t -> int64
(** Execute the version on the next invocation (charged like any timed
    run) and digest its observable outcome.  At equal invocation
    ordinals every correct version produces the identical digest
    regardless of runner seed, so comparing a candidate's digest with
    the base version's is a differential correctness check; a fault
    plan's miscompiled configurations yield a corrupted digest.  May
    raise {!Failed} like {!step}. *)

(** {1 Accounting} *)

val invocations_consumed : t -> int
val passes_started : t -> int
val tuning_cycles : t -> float
val tuning_seconds : t -> float

val interp_steps_hint : t -> int
(** Interpreter block entries executed by the runner's tape ({!Tape.steps}):
    class-cache misses only, and on a shared tape every reader's
    interpretations together — exposed for performance tests. *)
