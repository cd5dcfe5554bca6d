(* Tests for the online/adaptive tuning engine. *)

open Peak_machine
open Peak_compiler
open Peak_workload
open Peak

let flag n = Option.get (Flags.by_name n)
let bench n = Option.get (Registry.by_name n)

let make ?(machine = Machine.pentium4) ?(candidates = []) ?seed ?window ?compile_latency name =
  let b = bench name in
  let tsec = Tsection.make b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:3 in
  Adaptive.create ?seed ?window ?compile_latency tsec trace machine ~candidates

let good_candidates =
  [
    Optconfig.disable Optconfig.o3 (flag "schedule-insns");
    Optconfig.disable Optconfig.o3 (flag "force-mem");
  ]

let test_adaptive_beats_o3_when_candidates_help () =
  let a = make ~candidates:good_candidates "MGRID" in
  let s = Adaptive.run a ~invocations:2410 in
  Alcotest.(check bool) "adaptive beats O3" true (s.Adaptive.total_cycles < s.Adaptive.o3_cycles);
  Alcotest.(check bool) "oracle is the floor" true
    (s.Adaptive.oracle_cycles <= s.Adaptive.total_cycles +. 1e-6);
  Alcotest.(check bool) "swaps occurred" true (s.Adaptive.swaps > 0)

let test_adaptive_no_candidates_is_o3 () =
  let a = make ~candidates:[] "MGRID" in
  let s = Adaptive.run a ~invocations:500 in
  Alcotest.(check (float 1e-6)) "equals O3 exactly" s.Adaptive.o3_cycles s.Adaptive.total_cycles;
  Alcotest.(check int) "no swaps" 0 s.Adaptive.swaps

let test_adaptive_contexts_discovered () =
  let a = make ~candidates:good_candidates "MGRID" in
  let s = Adaptive.run a ~invocations:1000 in
  Alcotest.(check int) "five grid levels" 5 s.Adaptive.contexts_seen;
  Alcotest.(check int) "one choice per context" 5 (List.length s.Adaptive.choices)

let test_adaptive_harmful_candidate_rejected () =
  (* O0 is far worse than O3: the engine must sample it briefly and keep
     O3 as the best everywhere *)
  let a = make ~candidates:[ Optconfig.o0 ] "SWIM" ~machine:Machine.sparc2 in
  let s = Adaptive.run a ~invocations:600 in
  List.iter
    (fun (_, cfg) -> Alcotest.(check bool) "kept O3" true (Optconfig.equal cfg Optconfig.o3))
    s.Adaptive.choices;
  (* the exploration cost is bounded by roughly a window of O0 runs *)
  Alcotest.(check bool) "exploration cost bounded" true
    (s.Adaptive.total_cycles < 1.25 *. s.Adaptive.o3_cycles)

let test_adaptive_compile_latency_delays_experiments () =
  let run latency =
    let a =
      make ~candidates:good_candidates ~compile_latency:latency ~window:8 "MGRID"
    in
    Adaptive.run a ~invocations:400
  in
  let fast = run 0 in
  let slow = run 350 in
  Alcotest.(check bool) "long compiles mean fewer/no swaps" true
    (slow.Adaptive.swaps <= fast.Adaptive.swaps);
  Alcotest.(check bool) "long compiles keep the run near O3" true
    (slow.Adaptive.total_cycles >= fast.Adaptive.total_cycles -. 1e-6)

let test_adaptive_single_context_section () =
  (* SWIM has one context: the engine degenerates to global sampling *)
  let a = make ~candidates:good_candidates "SWIM" ~machine:Machine.pentium4 in
  let s = Adaptive.run a ~invocations:400 in
  Alcotest.(check int) "one context" 1 s.Adaptive.contexts_seen;
  Alcotest.(check bool) "still beats O3" true (s.Adaptive.total_cycles < s.Adaptive.o3_cycles)

(* ------------------------------------------------------------------ *)
(* Staleness under drift: differential oracles in the test_faults      *)
(* style — ground-truth shift points in, detections out, and kill-free *)
(* reruns bit-identical — swept over pinned seeds.                     *)
(* ------------------------------------------------------------------ *)

let drift_seeds = [ 3; 7; 23 ]

(* ART is the staleness benchmark: a single context slot (continuous
   vigilance defeats CBR), so the only way the engine can react to
   drift is the within-slot staleness state machine; the warp pins the
   window offset and quadruples the F1 walk, an unmistakable regime-B
   cost regression. *)
let drift_run ~seed ~invocations spec =
  let b = bench "ART" in
  let tsec = Tsection.make b.Benchmark.ts in
  let base = b.Benchmark.trace Trace.Train ~seed in
  let drift =
    match Drift.of_string spec with Ok d -> d | Error e -> Alcotest.failf "spec: %s" e
  in
  let trace = Drift.apply ~length:invocations drift base in
  let a =
    Adaptive.create ~seed tsec trace Machine.pentium4 ~candidates:good_candidates
  in
  (Adaptive.run a ~invocations, drift)

(* A stale verdict needs the incumbent's rating-time baseline plus the
   Suspect round trip: two full recent windows after the shift, so the
   detection must land within this many invocations of a true shift. *)
let detection_slack = 400

let test_drift_detections_match_ground_truth () =
  List.iter
    (fun seed ->
      let invocations = 1500 in
      let shift = 600 in
      let spec = Printf.sprintf "seed=%d,step=%d,warp=off*0,warp=numf1s*4" seed shift in
      let s, drift = drift_run ~seed ~invocations spec in
      let shifts = Drift.shift_points drift ~length:invocations in
      Alcotest.(check (list int)) (Printf.sprintf "seed %d: one declared shift" seed)
        [ shift ] shifts;
      (* no false negatives: the step is detected... *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: shift detected" seed)
        true (s.Adaptive.stale_detections >= 1);
      (* ...promptly, and never before the ground-truth shift *)
      List.iter
        (fun at ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: detection at %d not before the shift" seed at)
            true (at >= shift);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: detection at %d within slack of a shift" seed at)
            true
            (List.exists (fun p -> at >= p && at <= p + detection_slack) shifts))
        s.Adaptive.stale_invocations;
      (* bounded false positives *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: detections bounded" seed)
        true
        (s.Adaptive.stale_detections <= List.length shifts + 2);
      (* the re-tuning cycle completes and is accounted *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: re-tuning completed" seed)
        true (s.Adaptive.readapts >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: readapt invocations counted" seed)
        true
        (s.Adaptive.readapts = 0 || s.Adaptive.readapt_invocations > 0);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: retuning cycles accounted" seed)
        true
        (s.Adaptive.retuning_cycles > 0.0))
    drift_seeds

let test_drift_no_shift_no_detections () =
  (* false-positive control: the drift stream with no declared pattern
     never enters regime B (the warp stays dormant), so the staleness
     machinery must stay silent across every seed; so must it when the
     regime gets cheaper (the F1 walk shrinks to a quarter at 600): the
     detector is one-sided, and a credibly faster window is no
     regression *)
  List.iter
    (fun (what, pattern) ->
      List.iter
        (fun seed ->
          let spec = Printf.sprintf "seed=%d%s,warp=off*0,warp=numf1s*%s" seed pattern what in
          let s, _ = drift_run ~seed ~invocations:1200 spec in
          Alcotest.(check int) (spec ^ ": no detections") 0 s.Adaptive.stale_detections;
          Alcotest.(check int) (spec ^ ": no readapts") 0 s.Adaptive.readapts;
          Alcotest.(check (float 0.0)) (spec ^ ": no retuning cycles") 0.0
            s.Adaptive.retuning_cycles)
        drift_seeds)
    [ ("4", ""); ("0.25", ",step=600") ]

let test_drift_burst_detected_inside_burst () =
  List.iter
    (fun seed ->
      let invocations = 1800 in
      let spec = Printf.sprintf "seed=%d,burst=500+600,warp=off*0,warp=numf1s*4" seed in
      let s, _ = drift_run ~seed ~invocations spec in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: burst detected" seed)
        true (s.Adaptive.stale_detections >= 1);
      List.iter
        (fun at ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: detection at %d after burst onset" seed at)
            true (at >= 500))
        s.Adaptive.stale_invocations)
    drift_seeds

let test_drift_reruns_bit_identical () =
  (* the kill-free differential: same spec, same seed, fresh engine —
     every stats field matches bit for bit *)
  List.iter
    (fun seed ->
      let spec = Printf.sprintf "seed=%d,step=600,warp=off*0,warp=numf1s*4" seed in
      let s1, _ = drift_run ~seed ~invocations:1500 spec in
      let s2, _ = drift_run ~seed ~invocations:1500 spec in
      Oracles.check_identical_adaptive (Printf.sprintf "drift rerun seed %d" seed) s1 s2)
    drift_seeds

let test_drift_stats_carry_across_runs () =
  (* run may be called repeatedly: two half-length runs must end at the
     same whole-life ledger as one full-length run *)
  let seed = 3 in
  let spec = Printf.sprintf "seed=%d,step=600,warp=off*0,warp=numf1s*4" seed in
  let whole, _ = drift_run ~seed ~invocations:1500 spec in
  let b = bench "ART" in
  let tsec = Tsection.make b.Benchmark.ts in
  let base = b.Benchmark.trace Trace.Train ~seed in
  let drift = Result.get_ok (Drift.of_string spec) in
  let trace = Drift.apply ~length:1500 drift base in
  let a = Adaptive.create ~seed tsec trace Machine.pentium4 ~candidates:good_candidates in
  let _ = Adaptive.run a ~invocations:750 in
  let split = Adaptive.run a ~invocations:750 in
  Oracles.check_identical_adaptive "split run" whole split

let suites =
  [
    ( "core.adaptive",
      [
        Alcotest.test_case "beats O3" `Quick test_adaptive_beats_o3_when_candidates_help;
        Alcotest.test_case "no candidates = O3" `Quick test_adaptive_no_candidates_is_o3;
        Alcotest.test_case "contexts discovered" `Quick test_adaptive_contexts_discovered;
        Alcotest.test_case "harmful candidate rejected" `Quick
          test_adaptive_harmful_candidate_rejected;
        Alcotest.test_case "compile latency" `Quick test_adaptive_compile_latency_delays_experiments;
        Alcotest.test_case "single context" `Quick test_adaptive_single_context_section;
        Alcotest.test_case "drift detections match ground truth" `Quick
          test_drift_detections_match_ground_truth;
        Alcotest.test_case "no shift, no detections" `Quick test_drift_no_shift_no_detections;
        Alcotest.test_case "burst detected inside burst" `Quick
          test_drift_burst_detected_inside_burst;
        Alcotest.test_case "drift reruns bit-identical" `Quick test_drift_reruns_bit_identical;
        Alcotest.test_case "stats carry across runs" `Quick test_drift_stats_carry_across_runs;
      ] );
  ]
