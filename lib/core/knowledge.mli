(** Canonical feature resolver for the knowledge base.

    {!Peak_store.Kb} is deliberately agnostic about where program
    feature vectors come from; this module supplies the canonical
    ones — the static TS summary ({!Peak_ir.Features.vector})
    concatenated with the machine-conditioned response signature
    ({!Peak_compiler.Effects.machine_signature}) — and the build /
    recommend glue over the workload registry, so the CLI, the driver
    and the bench all agree on what a program looks like. *)

open Peak_workload

val dims : string list
(** Names of the feature-vector components, in order:
    [Features.vector_dims @ Effects.machine_signature_dims]. *)

val program_features : Benchmark.t -> Peak_machine.Machine.t -> float array
(** Feature vector of one registry benchmark on one machine. *)

val features : benchmark:string -> machine:string -> float array option
(** Resolver for {!Peak_store.Kb.of_sessions}: case-insensitive
    registry and machine lookup; [None] for names the registry does
    not know (e.g. fabricated test sessions). *)

val build : dir:string -> (Peak_store.Kb.t, string) result
(** [Kb.build] over the store at [dir] with the canonical resolver. *)

val recommend :
  Peak_store.Kb.t ->
  benchmark:string ->
  machine:string ->
  ?k:int ->
  ?exclude:string ->
  unit ->
  Peak_store.Kb.recommendation list
(** Ranked recommendations for a benchmark/machine named in the
    registry; [] when either name is unknown. *)

val start :
  Peak_store.Kb.t -> Benchmark.t -> Peak_machine.Machine.t -> Peak_store.Kb.recommendation option
(** The warm-start configuration for a tuning session: the top
    {!recommend} row, [None] on an empty corpus.  [tune --kb FILE],
    [tune --warm --store DIR] (over the store's own corpus) and
    {!Driver.tune}'s [?kb] all start from it. *)
