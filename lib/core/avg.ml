(** The AVG strawman (Section 5.2).

    "AVG simply takes the timing average of a number of invocations,
    regardless of the TS's context."  Cheap, but the sample's context mix
    depends on where in the program the window lands, so two versions
    can be compared on different workloads — the unfairness the three
    real rating methods exist to prevent.  Included as the paper's
    baseline. *)

let rate ?(params = Rating.default_params) runner version =
  let samples = ref [] in
  let consumed = ref 0 in
  let result = ref None in
  while !result = None do
    let added = ref 0 in
    while !added < params.Rating.window && !consumed < params.Rating.max_invocations do
      let time = Runner.step runner version in
      incr consumed;
      incr added;
      samples := time :: !samples
    done;
    (match Rating.summarize ~params !samples with
    | Rating.Summary { eval; var; kept; converged } ->
        (* AVG ships after one window regardless of convergence when the
           mix is unstable, mirroring its naive usage; it still reports
           the convergence flag honestly. *)
        if
          converged
          || !consumed >= params.Rating.max_invocations
          || !consumed >= 4 * params.Rating.window
        then
          result := Some { Rating.eval; var; samples = kept; invocations = !consumed; converged }
    | Rating.Insufficient { observed } ->
        if !consumed >= params.Rating.max_invocations then
          raise
            (Rating.No_samples
               (Printf.sprintf "Avg.rate: only %d usable sample(s) of %s within %d invocations"
                  observed
                  (Tsection.name (Runner.tsection runner))
                  !consumed)))
  done;
  Option.get !result
