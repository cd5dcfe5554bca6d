(** The rating-consistency experiment of Table 1 (Section 5.1).

    For each tuning section: rate a single experimental version (compiled
    under -O3, i.e. identical to the base) repeatedly across the run,
    with fixed window sizes w ∈ {10, 20, 40, 80, 160}, producing a vector
    of ratings [V_1..V_n].  The rating error is
    [X_i = V_i / mean(V) - 1] for CBR and MBR (whose EVAL is a time) and
    [X_i = V_i - 1] for RBR (whose ideal rating against an identical base
    is exactly 1).  The table reports mean and standard deviation of the
    errors, ×100 for readability. *)

open Peak_compiler
open Peak_workload

type cell = { window : int; mean_x100 : float; stddev_x100 : float }

type row = {
  benchmark : Benchmark.t;
  method_used : Method.t;
  context_label : string option;
  n_invocations : int;  (** Trace length (scaled counterpart of Table 1's column). *)
  cells : cell list;
}

let default_windows = [ 10; 20; 40; 80; 160 ]

(* Fixed-window parameters: converge as soon as the window is full. *)
let fixed_window_params w =
  {
    Rating.window = w;
    rel_threshold = infinity;
    max_invocations = (w * 400) + 4000;
    outlier_k = 3.5;
  }

let summarize_errors ~relative_to_mean evals =
  let open Peak_util in
  let v = Array.of_list evals in
  let xs =
    if relative_to_mean then begin
      let vbar = Stats.mean v in
      Array.map (fun x -> (x /. vbar) -. 1.0) v
    end
    else Array.map (fun x -> x -. 1.0) v
  in
  (Stats.mean xs *. 100.0, Stats.stddev xs *. 100.0)

let gather_evals ~n_ratings rate =
  List.init n_ratings (fun _ -> (rate ()).Rating.eval)

let measure ?(seed = 23) ?(n_ratings = 25) ?(windows = default_windows)
    (benchmark : Benchmark.t) machine =
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace Trace.Train ~seed in
  let profile = Profile.run ~seed:(seed + 1) tsec trace machine in
  let advice = Consultant.advise tsec profile in
  let version = Version.compile machine tsec.Tsection.features Optconfig.o3 in
  let runner = Runner.create ~seed:(seed + 2) tsec trace machine in
  let cells_for rate ~relative_to_mean =
    List.map
      (fun w ->
        let evals = gather_evals ~n_ratings (fun () -> rate (fixed_window_params w)) in
        let mean_x100, stddev_x100 = summarize_errors ~relative_to_mean evals in
        { window = w; mean_x100; stddev_x100 })
      windows
  in
  match advice.Consultant.chosen with
  | Method.Avg | Method.Whl -> invalid_arg "Consistency: baseline method chosen"
  | Method.Rbr ->
      [
        {
          benchmark;
          method_used = Method.Rbr;
          context_label = None;
          n_invocations = trace.Trace.length;
          cells =
            cells_for
              (fun params -> Rbr.rate ~params runner ~base:version version)
              ~relative_to_mean:false;
        };
      ]
  | Method.Mbr ->
      [
        {
          benchmark;
          method_used = Method.Mbr;
          context_label = None;
          n_invocations = trace.Trace.length;
          cells =
            cells_for
              (fun params ->
                Mbr.rate ~params runner ~components:profile.Profile.components
                  ~avg_counts:profile.Profile.avg_component_counts
                  ~dominant:profile.Profile.dominant_component version)
              ~relative_to_mean:true;
        };
      ]
  | Method.Cbr ->
      let sources, stats =
        match profile.Profile.context with
        | Profile.Cbr_ok { sources; _ } -> (sources, Profile.contexts profile)
        | Profile.Cbr_no reason -> invalid_arg ("Consistency: CBR chosen but " ^ reason)
      in
      let contexts =
        match stats with
        | [] -> [ (None, [||]) ]
        | [ only ] -> [ (None, only.Profile.values) ]
        | several ->
            List.mapi
              (fun i s -> (Some (Printf.sprintf "Context %d" (i + 1)), s.Profile.values))
              several
      in
      List.map
        (fun (context_label, target) ->
          {
            benchmark;
            method_used = Method.Cbr;
            context_label;
            n_invocations = trace.Trace.length;
            cells =
              cells_for
                (fun params -> Cbr.rate ~params runner ~sources ~target version)
                ~relative_to_mean:true;
          })
        contexts
