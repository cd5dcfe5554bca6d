(** Model-based rating (Section 2.3).

    Every invocation contributes an observation (component counts,
    time); solving the regression [Y = T·C] (Eq. 3) yields the
    component-time vector.  The version's EVAL is either the dominant
    component's time (mode [Dominant]) or the model-predicted average
    invocation time [T_avg = Σ T_i · C_avg,i] (mode [Avg], Eq. 4).  VAR
    is the residual-to-total sum-of-squares ratio of the fit, per
    Section 3.

    Counter instrumentation is charged per invocation: only the
    representative block of each component keeps its counter after the
    profile-driven merge removes the rest. *)

type mode = Dominant | Avg

let counter_cost_per_entry = 0.3

let rate ?(params = Rating.default_params) ?(mode = Avg) runner ~components
    ~avg_counts ~dominant version =
  let reps = Component_analysis.representatives components in
  let times = ref [] in
  let counts = ref [] in
  let n_collected = ref 0 in
  let consumed = ref 0 in
  let k = Component_analysis.n_components components in
  let scratch = Peak_util.Stats.Scratch.create () in
  let min_obs = max params.Rating.window (3 * k) in
  let target = ref min_obs in
  let result = ref None in
  while !result = None do
    while !n_collected < !target && !consumed < params.Rating.max_invocations do
      let time = Runner.step runner version in
      let block_counts = Runner.counts runner in
      incr consumed;
      incr n_collected;
      let counted = List.fold_left (fun acc b -> acc + block_counts.(b)) 0 reps in
      Runner.charge_overhead runner (counter_cost_per_entry *. float_of_int counted);
      times := time :: !times;
      (* Dominant mode is the paper's rule (a): valid when one component
         consumes ~all the time, so the regression collapses to that
         component's count plus the constant — which also sidesteps the
         collinearity of a deep loop nest's count polynomials. *)
      let full = Component_analysis.counts components block_counts in
      let row =
        match mode with
        | Avg -> full
        | Dominant ->
            if dominant = Array.length full - 1 then [| 1.0 |]
            else [| full.(dominant); 1.0 |]
      in
      counts := row :: !counts
    done;
    let times_a = Array.of_list (List.rev !times) in
    let counts_a = Array.of_list (List.rev !counts) in
    let fit =
      if Array.length times_a >= k then
        try
          (* Outlier elimination (Section 3): fit once, drop observations
             whose residuals are perturbation-sized (interrupt spikes and
             cache-flush events dwarf the model error), refit on the
             rest. *)
          let first = Peak_util.Regression.fit ~counts:counts_a ~times:times_a in
          let module Sc = Peak_util.Stats.Scratch in
          Sc.clear scratch;
          Array.iteri
            (fun j t -> Sc.push scratch (t -. Peak_util.Regression.predict first counts_a.(j)))
            times_a;
          Sc.outlier_mask ~k:params.Rating.outlier_k scratch;
          let kept = Sc.kept_count scratch in
          if kept = Array.length times_a || kept < k then Some first
          else begin
            let keep a =
              let out = ref [] in
              Array.iteri (fun j x -> if Sc.kept scratch j then out := x :: !out) a;
              Array.of_list (List.rev !out)
            in
            Some (Peak_util.Regression.fit ~counts:(keep counts_a) ~times:(keep times_a))
          end
        with Failure _ | Invalid_argument _ -> None
      else None
    in
    let finish eval var converged =
      result :=
        Some
          {
            Rating.eval;
            var;
            samples = Array.length times_a;
            invocations = !consumed;
            converged;
          }
    in
    (match fit with
    | Some fit ->
        let eval =
          match mode with
          | Dominant -> fit.Peak_util.Regression.coefficients.(0)
          | Avg -> Peak_util.Regression.predict fit avg_counts
        in
        let var = fit.Peak_util.Regression.var_ratio in
        let converged = Array.length times_a >= min_obs && var <= 4.0 *. params.Rating.rel_threshold in
        if converged then finish eval var true
        else if !consumed >= params.Rating.max_invocations then finish eval var false
    | None ->
        (* budget exhausted before the regression could be fit (fewer
           observations than components, or a singular system): a NaN
           eval here would flow into Search comparison/sort paths and
           poison the candidate ranking, so fail loudly like CBR does *)
        if !consumed >= params.Rating.max_invocations then
          raise
            (Rating.No_samples
               (Printf.sprintf
                  "Mbr.rate: no model fit for %s after %d invocation(s) (%d component(s) \
                   need at least %d observations)"
                  (Tsection.name (Runner.tsection runner))
                  !consumed k k)));
    target := !target + params.Rating.window
  done;
  Option.get !result
