(** Context-based rating (Section 2.2).

    Rate a version by averaging the execution times of invocations that
    occur under one specific context — the fair comparison comes from
    only ever comparing like workloads.  Invocations under other
    contexts still execute (and are charged to tuning time); they simply
    contribute no sample.  The tuning flow rates versions under the most
    important context (by time share); an adaptive system would keep
    per-context winners. *)

let rate ?(params = Rating.default_params) runner ~sources ~target version =
  let samples = ref [] in
  let consumed = ref 0 in
  let result = ref None in
  let scratch = Rating.make_scratch () in
  (* one option for the rating: [~context] would box one per invocation *)
  let context = Some sources in
  while !result = None do
    (* gather one window's worth of matching invocations *)
    let matched = ref 0 in
    while !matched < params.Rating.window && !consumed < params.Rating.max_invocations do
      let time = Runner.step ?context runner version in
      incr consumed;
      if Runner.context runner = target then begin
        incr matched;
        samples := time :: !samples
      end
    done;
    (match Rating.summarize_into scratch ~params !samples with
    | Rating.Summary { eval; var; kept; converged } ->
        if converged || !consumed >= params.Rating.max_invocations then
          result :=
            Some
              {
                Rating.eval;
                var;
                samples = kept;
                invocations = !consumed;
                converged;
              }
    | Rating.Insufficient { observed } ->
        (* a rating cannot be built from under two matching samples;
           caching a NaN here would silently corrupt every later relative
           ratio, so a target context that (almost) never occurred within
           the budget fails loudly instead *)
        if !consumed >= params.Rating.max_invocations then
          raise
            (Rating.No_samples
               (Printf.sprintf
                  "Cbr.rate: only %d invocation(s) of %s matched target context [%s] within \
                   %d invocations"
                  observed
                  (Tsection.name (Runner.tsection runner))
                  (String.concat "; " (Array.to_list (Array.map string_of_float target)))
                  !consumed)))
  done;
  Option.get !result
