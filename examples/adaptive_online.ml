(* Per-context version selection — the online/adaptive scenario.

     dune exec examples/adaptive_online.exe [invocations]

   The paper tunes offline and keeps only the best version under the
   most important context, but notes (Sections 1, 2.2 and 6) that the
   same rating machinery supports an adaptive system that keeps the
   per-context winners and swaps versions as the context changes.  Part
   one demonstrates exactly that on APSI's radb4, whose three FFT stage
   shapes favour different configurations: versions are rated per
   context with CBR, and the context-specific winners are compared
   against the single global winner.

   Part two goes online under drift: a live Adaptive engine streams
   ART's match section through a step-shifted workload (Drift), detects
   the incumbent going stale, re-tunes without pausing service, and
   prints the staleness stats.  The optional argv bounds the stream so
   the test suite can run the example quickly. *)

open Peak_machine
open Peak_compiler
open Peak_workload
open Peak

let () =
  let benchmark = Option.get (Registry.by_name "APSI") in
  let machine = Machine.pentium4 in
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace Trace.Train ~seed:9 in
  let profile = Profile.run tsec trace machine in
  let sources, stats =
    match profile.Profile.context with
    | Profile.Cbr_ok { sources; _ } -> (sources, Profile.contexts profile)
    | Profile.Cbr_no reason -> failwith reason
  in
  let source_name = function
    | Peak_ir.Expr.Scalar v -> v
    | Peak_ir.Expr.Array_elem (a, _) -> a ^ "[..]"
    | Peak_ir.Expr.Pointer_deref p -> "*" ^ p
  in
  Printf.printf "radb4 has %d contexts (FFT stage shapes):\n" (List.length stats);
  List.iteri
    (fun i (s : Profile.context_stat) ->
      let binding =
        String.concat ", "
          (List.mapi
             (fun j src -> Printf.sprintf "%s=%g" (source_name src) s.Profile.values.(j))
             sources)
      in
      Printf.printf "  context %d: (%s)  share of TS time: %.0f%%\n" (i + 1) binding
        (s.Profile.time_share *. 100.0))
    stats;

  (* candidate versions: -O3 and a few single-flag removals that matter
     on this machine *)
  let candidates =
    Optconfig.o3
    :: List.map
         (fun name -> Optconfig.disable Optconfig.o3 (Option.get (Flags.by_name name)))
         [ "schedule-insns"; "strength-reduce"; "loop-optimize"; "if-conversion" ]
  in
  let runner = Runner.create ~seed:9 tsec trace machine in
  let params = { Rating.default_params with window = 30; max_invocations = 6000 } in
  let rate_in_context target config =
    let version = Version.compile machine tsec.Tsection.features config in
    (Cbr.rate ~params runner ~sources ~target version).Rating.eval
  in

  Printf.printf "\nPer-context ratings (cycles per invocation; lower is better):\n";
  let winners =
    List.map
      (fun (s : Profile.context_stat) ->
        let rated =
          List.map (fun config -> (config, rate_in_context s.Profile.values config)) candidates
        in
        let best = List.fold_left (fun a b -> if snd b < snd a then b else a) (List.hd rated) rated in
        Printf.printf "  (ido=%g,l1=%g): best %s at %.0f cycles (-O3: %.0f)\n"
          s.Profile.values.(0) s.Profile.values.(1)
          (Optconfig.to_string (fst best))
          (snd best)
          (List.assoc Optconfig.o3 rated);
        (s, best))
      stats
  in

  (* value of adaptivity: weighted per-context winners vs single best *)
  let weighted f =
    List.fold_left (fun acc (s, _) -> acc +. (s.Profile.time_share *. f s)) 0.0 winners
  in
  let adaptive = weighted (fun s -> snd (List.assoc s (List.map (fun (s, b) -> (s, b)) winners))) in
  let single_best_config =
    (* the offline scenario: pick one version by the dominant context *)
    match winners with (_, (config, _)) :: _ -> config | [] -> Optconfig.o3
  in
  let single = weighted (fun s -> rate_in_context s.Profile.values single_best_config) in
  Printf.printf "\nWeighted mean invocation cost:\n";
  Printf.printf "  single best version (offline PEAK): %.0f cycles\n" single;
  Printf.printf "  per-context winners (adaptive):     %.0f cycles\n" adaptive;
  Printf.printf "  adaptivity gain: %.1f%%\n" (((single /. adaptive) -. 1.0) *. 100.0);

  (* ---- part two: live adaptation under drift ---- *)
  let invocations =
    match Sys.argv with [| _; n |] -> int_of_string n | _ -> 1500
  in
  let art = Option.get (Registry.by_name "ART") in
  let art_tsec = Tsection.make art.Benchmark.ts in
  let base = art.Benchmark.trace Trace.Train ~seed:3 in
  (* regime shift at 40% of the stream: the F1 walk quadruples, so the
     configuration tuned on the early regime goes stale *)
  let spec = Printf.sprintf "seed=3,step=%d,warp=off*0,warp=numf1s*4" (2 * invocations / 5) in
  let drift =
    match Drift.of_string spec with Ok d -> d | Error e -> failwith e
  in
  let stream = Drift.apply ~length:invocations drift base in
  let engine =
    Adaptive.create ~seed:3 art_tsec stream Machine.pentium4
      ~candidates:
        [
          Optconfig.disable Optconfig.o3 (Option.get (Flags.by_name "schedule-insns"));
          Optconfig.disable Optconfig.o3 (Option.get (Flags.by_name "force-mem"));
        ]
  in
  let s = Adaptive.run engine ~invocations in
  Printf.printf "\nOnline under drift (ART, %s):\n" spec;
  Printf.printf "  invocations:        %d (total %.0f cycles; -O3 %.0f; oracle %.0f)\n"
    s.Adaptive.invocations s.Adaptive.total_cycles s.Adaptive.o3_cycles s.Adaptive.oracle_cycles;
  Printf.printf "  stale detections:   %d at %s\n" s.Adaptive.stale_detections
    (String.concat ", " (List.map string_of_int s.Adaptive.stale_invocations));
  Printf.printf "  re-tuning cycles:   %d completed, mean time-to-readapt %.0f invocations\n"
    s.Adaptive.readapts s.Adaptive.mean_time_to_readapt;
  Printf.printf "  served while stale: %d invocations (service never paused)\n"
    s.Adaptive.readapt_invocations;
  Printf.printf "  phase ledger:       fresh %.0f / suspect %.0f / re-tuning %.0f cycles\n"
    s.Adaptive.fresh_cycles s.Adaptive.suspect_cycles s.Adaptive.retuning_cycles
