(** Aggregation for the Figure 7 experiments.

    Figure 7 (a)/(b): whole-program improvement over -O3 per (benchmark,
    rating method), tuned on train (left bar) and on ref (right bar),
    always measured on ref.

    Figure 7 (c)/(d): tuning time normalized to "the state-of-the-art
    approach of using full application [runs]" — i.e. what the same
    number of version ratings would have cost had each required a whole
    program execution, which is the WHL baseline's cost model.  A value
    of 0.2 therefore reads "this method tuned in 20% of the WHL time",
    the paper's "tuning time reduced by 80%". *)

open Peak_workload

type cell = {
  result : Driver.result;
  improvement_train_pct : float;
      (** Improvement on ref of the config found while tuning on train. *)
  improvement_ref_pct : float;
      (** Improvement on ref of the config found while tuning on ref. *)
  normalized_tuning_time : float;  (** vs the WHL-equivalent cost. *)
}

let whl_equivalent_cycles (r : Driver.result) =
  let profile = r.Driver.profile in
  let share = r.Driver.benchmark.Benchmark.time_share in
  let pass = profile.Profile.ts_pass_cycles /. share in
  float_of_int (max 1 r.Driver.search_stats.Search.ratings) *. pass

let normalized_tuning_time r = r.Driver.tuning_cycles /. whl_equivalent_cycles r

(** One Figure-7 cell: tune on train and on ref with the given method,
    evaluate both results on one summary of the ref pass. *)
let figure7_cell ?(seed = 11) ~method_ benchmark machine =
  let train = Driver.tune ~seed ~method_ benchmark machine Trace.Train in
  let ref_run = Driver.tune ~seed:(seed + 100) ~method_ benchmark machine Trace.Ref in
  let on_ref = Driver.pass_summary benchmark machine Trace.Ref in
  {
    result = train;
    improvement_train_pct = Driver.summary_improvement_pct on_ref ~best:train.Driver.best_config;
    improvement_ref_pct = Driver.summary_improvement_pct on_ref ~best:ref_run.Driver.best_config;
    normalized_tuning_time = normalized_tuning_time train;
  }

(** The methods Figure 7 shows for a benchmark: every applicable rating
    method (CBR even when the consultant would reject it for context
    count, matching the MGRID_CBR bar), plus AVG and WHL. *)
let figure7_methods benchmark machine ~seed =
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace Trace.Train ~seed in
  let profile = Profile.run ~seed tsec trace machine in
  let cbr_possible =
    match profile.Profile.context with Profile.Cbr_ok _ -> true | Profile.Cbr_no _ -> false
  in
  let mbr_possible =
    Component_analysis.n_components profile.Profile.components
    <= Consultant.default_max_components
  in
  List.filter_map
    (fun (ok, m) -> if ok then Some m else None)
    [
      (cbr_possible, Method.Cbr);
      (mbr_possible, Method.Mbr);
      (true, Method.Rbr);
      (true, Method.Avg);
      (true, Method.Whl);
    ]
