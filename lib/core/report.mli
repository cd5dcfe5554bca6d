(** Aggregation for the Figure 7 experiments.

    Figure 7 (a)/(b): whole-program improvement over -O3 per (benchmark,
    rating method), tuned on train (left bar) and on ref (right bar),
    always measured on ref.  Figure 7 (c)/(d): tuning time normalized to
    what the same number of ratings would have cost at one whole-program
    run each — the WHL cost model, so 0.2 reads "tuned in 20% of the WHL
    time" (the paper's "tuning time reduced by 80%"). *)

type cell = {
  result : Driver.result;  (** The train-dataset tuning run. *)
  improvement_train_pct : float;
      (** Improvement on ref of the config found while tuning on train. *)
  improvement_ref_pct : float;
      (** Improvement on ref of the config found while tuning on ref. *)
  normalized_tuning_time : float;  (** vs the WHL-equivalent cost. *)
}

val whl_equivalent_cycles : Driver.result -> float
(** [ratings × (one whole-program pass)]. *)

val normalized_tuning_time : Driver.result -> float

val figure7_cell :
  ?seed:int ->
  method_:Method.t ->
  Peak_workload.Benchmark.t ->
  Peak_machine.Machine.t ->
  cell
(** Tune on train and on ref with the method; evaluate both on one
    {!Driver.pass_summary} of the ref pass. *)

val figure7_methods :
  Peak_workload.Benchmark.t ->
  Peak_machine.Machine.t ->
  seed:int ->
  Method.t list
(** The methods Figure 7 charts for the benchmark: every possible rating
    method (CBR even when the consultant would reject it on context
    count — the MGRID_CBR bar), plus AVG and WHL. *)
