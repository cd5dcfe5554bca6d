(* Why fair rating matters: CBR/MBR/RBR vs the naive AVG.

     dune exec examples/compare_raters.exe

   MGRID's resid runs at a drifting mix of grid levels (full-multigrid
   warmup, then V-cycles).  A naive context-blind average compares one
   version measured on one mix against another version measured on a
   different mix — the unfairness the paper's rating methods exist to
   prevent.  This example rates the same two versions with every method
   and shows which ones get the comparison right. *)

open Peak_machine
open Peak_compiler
open Peak_workload
open Peak

let () =
  let benchmark = Option.get (Registry.by_name "MGRID") in
  let machine = Machine.pentium4 in
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace Trace.Train ~seed:3 in
  let profile = Profile.run tsec trace machine in

  (* ground truth via deterministic evaluation *)
  let slow_config = Optconfig.o3 in
  let fast_config = Optconfig.disable Optconfig.o3 (Option.get (Flags.by_name "schedule-insns")) in
  let truth config = Driver.evaluate_program_cycles benchmark machine config Trace.Train in
  let true_ratio = truth fast_config /. truth slow_config in
  Printf.printf "Ground truth: T(-fno-schedule-insns) / T(-O3) = %.3f\n" true_ratio;
  Printf.printf "(below 1.0: removing the flag genuinely helps on this machine)\n\n";

  let params = { Rating.default_params with window = 30; max_invocations = 4000 } in
  let compile config = Version.compile machine tsec.Tsection.features config in
  let v_slow = compile slow_config and v_fast = compile fast_config in

  (* each method rates the two versions back to back on a SHARED runner,
     so the fast version is measured on whatever workload mix follows the
     slow version's window — the adversarial situation for AVG *)
  let report name ratio = Printf.printf "  %-4s measures the ratio as %.3f\n" name ratio in

  let runner = Runner.create ~seed:101 tsec trace machine in
  (match (profile.Profile.context, Profile.dominant_context profile) with
  | Profile.Cbr_ok { sources; _ }, Some s ->
      let rate v = (Cbr.rate ~params runner ~sources ~target:s.Profile.values v).Rating.eval in
      report "CBR" (rate v_fast /. rate v_slow)
  | _ -> print_endline "  CBR inapplicable");

  let runner = Runner.create ~seed:101 tsec trace machine in
  let rate_mbr v =
    (Mbr.rate ~params runner ~components:profile.Profile.components
       ~avg_counts:profile.Profile.avg_component_counts
       ~dominant:profile.Profile.dominant_component v)
      .Rating.eval
  in
  report "MBR" (rate_mbr v_fast /. rate_mbr v_slow);

  let runner = Runner.create ~seed:101 tsec trace machine in
  report "RBR" (Rbr.rate ~params runner ~base:v_slow v_fast).Rating.eval;

  let runner = Runner.create ~seed:101 tsec trace machine in
  let rate_avg v = (Avg.rate ~params runner v).Rating.eval in
  report "AVG" (rate_avg v_fast /. rate_avg v_slow);

  Printf.printf
    "\nCBR, MBR and RBR track the true ratio; AVG's answer depends on where the\n\
     windows landed in the level mix, so across seeds it scatters widely:\n";
  let avg_ratios =
    List.map
      (fun seed ->
        let runner = Runner.create ~seed tsec trace machine in
        let rate v = (Avg.rate ~params runner v).Rating.eval in
        rate v_fast /. rate v_slow)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Printf.printf "  AVG ratios across 8 seeds: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.2f") avg_ratios));
  let arr = Array.of_list avg_ratios in
  Printf.printf "  spread: %.2f .. %.2f (true: %.3f)\n"
    (Array.fold_left Float.min arr.(0) arr)
    (Array.fold_left Float.max arr.(0) arr)
    true_ratio
