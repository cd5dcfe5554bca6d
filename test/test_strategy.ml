(* The Strategy registry: spelling round-trips, the codec key mirror,
   per-strategy determinism (batched == sequential, -j 1/2/4 identical),
   the staged screen's pinned-seed behaviour, and the empty-universe /
   zero-sample guards.  The synthetic oracle mirrors test_core's: three
   harmful flags with independent multiplicative effects. *)

open Peak_machine
open Peak_compiler
open Peak_workload
open Peak

let flag name =
  match Array.to_list Flags.all |> List.find_opt (fun f -> f.Flags.name = name) with
  | Some f -> f
  | None -> Alcotest.failf "no flag %s" name

let harmful = [ "strict-aliasing"; "schedule-insns"; "force-mem" ]

let synthetic_cost config =
  let cost = ref 100.0 in
  List.iter (fun f -> if Optconfig.is_enabled config (flag f) then cost := !cost *. 1.2) harmful;
  List.iter
    (fun (f : Flags.t) ->
      if (not (List.mem f.Flags.name harmful)) && Optconfig.is_enabled config f then
        cost := !cost *. 0.998)
    (Array.to_list Flags.all);
  !cost

let synthetic_relative ~base candidate = synthetic_cost candidate /. synthetic_cost base

(* A Batch-Elimination-shaped corpus: every single-flag removal rated
   against the full -O3 start — the cleanest journal a store can hold. *)
let be_corpus () =
  Array.to_list Flags.all
  |> List.map (fun f ->
         let c = Optconfig.disable Optconfig.o3 f in
         (c, synthetic_relative ~base:Optconfig.o3 c))

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_roundtrip () =
  List.iter
    (fun s ->
      match Strategy.of_string (Strategy.key s) with
      | Ok s' -> Alcotest.(check string) "key round-trips" (Strategy.key s) (Strategy.key s')
      | Error e -> Alcotest.failf "%s does not parse: %s" (Strategy.key s) e)
    Strategy.all;
  Alcotest.(check int) "seven registered strategies" 7 (List.length Strategy.all);
  Alcotest.(check (list string)) "keys mirror all" (List.map Strategy.key Strategy.all)
    Strategy.keys

let test_registry_spellings () =
  let ok s = Result.is_ok (Strategy.of_string s) in
  Alcotest.(check bool) "case-insensitive" true (ok "CE" && ok "Staged");
  (match Strategy.of_string "random" with
  | Ok (Strategy.Random 100) -> ()
  | _ -> Alcotest.fail "bare random means Random 100");
  (match Strategy.of_string "random17" with
  | Ok (Strategy.Random 17) -> ()
  | _ -> Alcotest.fail "random17 means Random 17");
  Alcotest.(check bool) "random0 rejected" true (Result.is_error (Strategy.of_string "random0"))

let test_registry_unknown_is_one_line () =
  match Strategy.of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus parsed"
  | Error e ->
      Alcotest.(check bool) "one line" true (not (String.contains e '\n'));
      Alcotest.(check bool) "names the spelling" true (Oracles.contains ~sub:"bogus" e);
      Alcotest.(check bool) "lists staged" true (Oracles.contains ~sub:"staged" e)

let test_registry_tables_filled () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "name" true (String.length (Strategy.name s) > 0);
      Alcotest.(check bool) "describe" true (String.length (Strategy.describe s) > 0);
      Alcotest.(check bool) "stage plan" true (String.length (Strategy.stage_plan s) > 0))
    Strategy.all

(* [Strategy.run] sends each strategy to its own search: the result and
   statistics equal the search run directly (Random and FF on the
   [seed + 3] stream), and the stage labels spell [stage_plan]. *)
let test_run_dispatch () =
  let relative = synthetic_relative and start = Optconfig.o3 and seed = 5 in
  let rng () = Peak_util.Rng.create ~seed:(seed + 3) in
  List.iter
    (fun (s, direct) ->
      let best, stats, stages =
        Strategy.run s (Strategy.make_ctx ~seed ~relative ()) start
      in
      let best', stats' = direct () in
      let key = Strategy.key s in
      Alcotest.(check bool) (key ^ ": best") true (Optconfig.equal best best');
      Alcotest.(check bool) (key ^ ": stats") true (stats = stats');
      Alcotest.(check string) (key ^ ": stages") (Strategy.stage_plan s)
        (String.concat " -> " (List.map (fun g -> g.Strategy.sg_label) stages)))
    [
      (Strategy.Ie, fun () -> Search.iterative_elimination ~relative start);
      (Strategy.Be, fun () -> Search.batch_elimination ~relative start);
      (Strategy.Ce, fun () -> Search.combined_elimination ~relative start);
      ( Strategy.Random 20,
        fun () -> Search.random_search ~samples:20 ~rng:(rng ()) ~relative start );
      (Strategy.Ff, fun () -> Search.fractional_factorial ~rng:(rng ()) ~relative start);
      (Strategy.Ose, fun () -> Search.ose ~relative start);
    ]

(* The codec's search-key whitelist and the registry must stay in
   lockstep: every registry spelling validates, and the codec's list is
   exactly the registry's (with the random family collapsed). *)
let test_codec_keys_lockstep () =
  let open Peak_store in
  List.iter
    (fun k ->
      match Codec.valid_search_key k with
      | Ok k' -> Alcotest.(check string) "validates" k k'
      | Error e -> Alcotest.failf "registry key %s rejected by codec: %s" k e)
    Strategy.keys;
  let collapsed =
    List.map
      (fun k ->
        if String.length k > 6 && String.sub k 0 6 = "random" then "random" else k)
      Strategy.keys
  in
  Alcotest.(check (list string)) "codec list mirrors the registry" collapsed Codec.search_keys;
  Alcotest.(check bool) "junk rejected" true (Result.is_error (Codec.valid_search_key "bogus"));
  Alcotest.(check bool) "empty accepted (pre-v5)" true (Result.is_ok (Codec.valid_search_key ""))

(* ------------------------------------------------------------------ *)
(* Determinism: batched == sequential, run-to-run stable               *)
(* ------------------------------------------------------------------ *)

let run_strategy ?rate_many ?corpus s seed =
  let ctx = Strategy.make_ctx ?rate_many ?corpus ~seed ~relative:synthetic_relative () in
  Strategy.run s ctx Optconfig.o3

(* A batching hook that perturbs evaluation order: rates the candidates
   in reverse, then restores submission order.  Any strategy that leaks
   evaluation order into its result diverges from the sequential path. *)
let reversed_rate_many ~base candidates =
  List.rev_map (fun c -> synthetic_relative ~base c) candidates |> List.rev

let same_outcome tag (c1, (s1 : Search.stats), g1) (c2, (s2 : Search.stats), g2) =
  Alcotest.(check bool) (tag ^ ": config") true (Optconfig.equal c1 c2);
  Alcotest.(check bool) (tag ^ ": stats") true (s1 = s2);
  Alcotest.(check bool) (tag ^ ": stages") true (g1 = g2)

let test_batched_equals_sequential =
  QCheck.Test.make ~count:30 ~name:"strategy: batched == sequential"
    QCheck.(pair (int_range 0 6) (int_range 0 1000))
    (fun (i, seed) ->
      let s = List.nth Strategy.all i in
      let plain = run_strategy s seed in
      let batched = run_strategy ~rate_many:reversed_rate_many s seed in
      same_outcome (Strategy.key s) plain batched;
      true)

let test_trained_screen_deterministic =
  QCheck.Test.make ~count:20 ~name:"staged: trained run is seed-stable"
    QCheck.(int_range 0 1000)
    (fun seed ->
      let corpus = be_corpus () in
      let a = run_strategy ~corpus Strategy.Staged seed in
      let b = run_strategy ~corpus ~rate_many:reversed_rate_many Strategy.Staged seed in
      same_outcome "staged trained" a b;
      true)

(* Strategy identity and stage boundaries must survive the domain pool:
   the full driver path at -j 1/2/4 on a real workload. *)
let test_staged_domains_identical () =
  let b = Oracles.bench "SWIM" in
  let tune domains =
    Peak_util.Pool.run ~domains (fun pool ->
        Driver.tune ~strategy:Strategy.Staged ~method_:Method.Rbr ~pool b Machine.pentium4
          Trace.Train)
  in
  let r1 = tune 1 and r2 = tune 2 and r4 = tune 4 in
  Oracles.check_identical "staged 1v2" r1 r2;
  Oracles.check_identical "staged 1v4" r1 r4;
  Alcotest.(check string) "strategy recorded" "staged" (Strategy.key r1.Driver.strategy);
  match r1.Driver.stages with
  | [ screen; refine ] ->
      Alcotest.(check string) "stage 1 label" "screen" screen.Strategy.sg_label;
      Alcotest.(check string) "stage 2 label" "refine" refine.Strategy.sg_label;
      Alcotest.(check int) "ratings add up"
        r1.Driver.search_stats.Search.ratings
        (screen.Strategy.sg_ratings + refine.Strategy.sg_ratings)
  | st -> Alcotest.failf "expected 2 stages, got %d" (List.length st)

(* ------------------------------------------------------------------ *)
(* The staged screen                                                   *)
(* ------------------------------------------------------------------ *)

let test_screen_untrained_pinned_seed () =
  let ctx = Strategy.make_ctx ~seed:11 ~relative:synthetic_relative () in
  let survivors, ratings = Strategy.staged_screen ctx Optconfig.o3 in
  Alcotest.(check int) "probe spend" (Strategy.staged_probe_count ~trained:false 38) ratings;
  Alcotest.(check int) "rank cut width" (Strategy.staged_keep_count 38) (List.length survivors);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " survives") true
        (List.exists (fun (g, _) -> g.Flags.name = f) survivors))
    harmful;
  (* pinned seed: the exact surviving subset is reproducible *)
  let survivors', ratings' = Strategy.staged_screen ctx Optconfig.o3 in
  Alcotest.(check int) "same spend" ratings ratings';
  Alcotest.(check (list string)) "same subset"
    (List.map (fun (f, _) -> f.Flags.name) survivors)
    (List.map (fun (f, _) -> f.Flags.name) survivors')

let test_screen_trained_uses_corpus () =
  let corpus = be_corpus () in
  let ctx = Strategy.make_ctx ~seed:11 ~corpus ~relative:synthetic_relative () in
  let survivors, ratings = Strategy.staged_screen ctx Optconfig.o3 in
  Alcotest.(check int) "trained probe spend" (Strategy.staged_probe_count ~trained:true 38) ratings;
  Alcotest.(check bool) "trained probes are fewer" true
    (Strategy.staged_probe_count ~trained:true 38 < Strategy.staged_probe_count ~trained:false 38);
  (* with a clean corpus the three harmful flags rank at the very top *)
  let top3 =
    List.map (fun (f, _) -> f.Flags.name)
      (List.filteri (fun i _ -> i < 3)
         (List.sort (fun (_, a) (_, b) -> compare (b : float) a) survivors))
  in
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " in top 3") true (List.mem f top3))
    harmful;
  List.iter
    (fun (_, importance) ->
      Alcotest.(check bool) "importance finite" true (Float.is_finite importance))
    survivors

let test_screen_ignores_implausible_corpus () =
  (* absolute cycle counts and NaNs in the index must not poison the
     fit: the screen filters to plausible relative times, so a corpus
     of garbage leaves it in the untrained regime *)
  let garbage =
    List.init 50 (fun i -> (Optconfig.o3, if i mod 2 = 0 then 8.9e12 else Float.nan))
  in
  let ctx = Strategy.make_ctx ~seed:11 ~corpus:garbage ~relative:synthetic_relative () in
  let _, ratings = Strategy.staged_screen ctx Optconfig.o3 in
  Alcotest.(check int) "still untrained" (Strategy.staged_probe_count ~trained:false 38) ratings

let test_staged_beats_ce_budget () =
  (* the headline claim on the synthetic oracle: same harmful flags
     found, strictly fewer ratings than Combined Elimination *)
  let corpus = be_corpus () in
  let best, stats, stages = run_strategy ~corpus Strategy.Staged 11 in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " removed") false (Optconfig.is_enabled best (flag f)))
    harmful;
  let _, ce_stats = Search.combined_elimination ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check bool) "fewer ratings than CE" true
    (stats.Search.ratings < ce_stats.Search.ratings);
  Alcotest.(check int) "two stages" 2 (List.length stages)

(* ------------------------------------------------------------------ *)
(* Guards: zero samples, empty flag universe                           *)
(* ------------------------------------------------------------------ *)

let test_random_zero_samples () =
  let rng = Peak_util.Rng.create ~seed:1 in
  let best, stats = Search.random_search ~samples:0 ~rng ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check bool) "start returned" true (Optconfig.equal best Optconfig.o3);
  Alcotest.(check int) "0 ratings" 0 stats.Search.ratings;
  Alcotest.(check int) "0 iterations" 0 stats.Search.iterations

let test_empty_universe_guard () =
  (* every strategy that searches over the start's enabled flags must
     return an all-off start untouched, spending nothing *)
  let start = Optconfig.o0 in
  List.iter
    (fun s ->
      let ctx = Strategy.make_ctx ~seed:11 ~relative:synthetic_relative () in
      let best, stats, _ = Strategy.run s ctx start in
      Alcotest.(check bool)
        (Strategy.key s ^ ": start returned")
        true (Optconfig.equal best start);
      Alcotest.(check int) (Strategy.key s ^ ": 0 ratings") 0 stats.Search.ratings)
    [ Strategy.Ie; Strategy.Be; Strategy.Ce; Strategy.Ff; Strategy.Ose; Strategy.Staged ];
  (* focused elimination with flags disabled in the start is the same
     no-op: stage 2's guard *)
  let best, stats =
    Search.focused_elimination
      ~flags:[ flag "gcse"; flag "strict-aliasing" ]
      ~relative:synthetic_relative start
  in
  Alcotest.(check bool) "focused on disabled flags is a no-op" true (Optconfig.equal best start);
  Alcotest.(check int) "focused spends nothing" 0 stats.Search.ratings

let test_focused_elimination_subset () =
  (* restricting CE to the harmful subset finds the same config as full
     CE on this oracle, with fewer ratings *)
  let flags = List.map flag harmful in
  let best, stats =
    Search.focused_elimination ~flags ~relative:synthetic_relative Optconfig.o3
  in
  let best_ce, ce_stats = Search.combined_elimination ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check bool) "same config as full CE" true (Optconfig.equal best best_ce);
  Alcotest.(check bool) "fewer ratings" true (stats.Search.ratings < ce_stats.Search.ratings)

let suites =
  [
    ( "strategy.registry",
      [
        Alcotest.test_case "round-trip" `Quick test_registry_roundtrip;
        Alcotest.test_case "spellings" `Quick test_registry_spellings;
        Alcotest.test_case "unknown one-line error" `Quick test_registry_unknown_is_one_line;
        Alcotest.test_case "tables filled" `Quick test_registry_tables_filled;
        Alcotest.test_case "run dispatches each strategy" `Quick test_run_dispatch;
        Alcotest.test_case "codec keys lockstep" `Quick test_codec_keys_lockstep;
      ] );
    ( "strategy.determinism",
      [
        QCheck_alcotest.to_alcotest test_batched_equals_sequential;
        QCheck_alcotest.to_alcotest test_trained_screen_deterministic;
        Alcotest.test_case "staged -j 1/2/4" `Slow test_staged_domains_identical;
      ] );
    ( "strategy.staged",
      [
        Alcotest.test_case "untrained screen pinned seed" `Quick test_screen_untrained_pinned_seed;
        Alcotest.test_case "trained screen uses corpus" `Quick test_screen_trained_uses_corpus;
        Alcotest.test_case "implausible corpus ignored" `Quick
          test_screen_ignores_implausible_corpus;
        Alcotest.test_case "beats CE budget" `Quick test_staged_beats_ce_budget;
      ] );
    ( "strategy.guards",
      [
        Alcotest.test_case "random zero samples" `Quick test_random_zero_samples;
        Alcotest.test_case "empty universe" `Quick test_empty_universe_guard;
        Alcotest.test_case "focused subset" `Quick test_focused_elimination_subset;
      ] );
  ]
