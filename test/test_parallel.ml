(* The parallel tuning engine: tune_suite determinism across domain
   counts, the auto method resolution, and the rating/search regression
   fixes that rode along with it. *)

open Peak_machine
open Peak_compiler
open Peak_workload
open Peak

(* Shared fixtures — the bit-identity oracle lives in [Oracles] so every
   determinism suite compares the same fields. *)
let bench = Oracles.bench
let check_identical = Oracles.check_identical

(* ------------------------------------------------------------------ *)
(* tune_suite determinism                                              *)
(* ------------------------------------------------------------------ *)

let suite_results domains =
  Driver.tune_suite ~strategy:Strategy.Be ~domains
    [ bench "SWIM"; bench "MGRID"; bench "ART" ]
    Machine.sparc2 Trace.Train

let test_tune_suite_deterministic () =
  let r1 = suite_results 1 in
  let r2 = suite_results 2 in
  let r4 = suite_results 4 in
  Alcotest.(check int) "three results" 3 (List.length r1);
  List.iter2
    (fun a b -> check_identical (a.Driver.benchmark.Benchmark.name ^ " 1v2") a b)
    r1 r2;
  List.iter2
    (fun a b -> check_identical (a.Driver.benchmark.Benchmark.name ^ " 1v4") a b)
    r1 r4

let test_tune_suite_order () =
  let r = suite_results 2 in
  Alcotest.(check (list string))
    "results in benchmark order"
    [ "SWIM"; "MGRID"; "ART" ]
    (List.map (fun (x : Driver.result) -> x.Driver.benchmark.Benchmark.name) r)

(* ------------------------------------------------------------------ *)
(* Driver ?method_ auto resolution (no second profile)                 *)
(* ------------------------------------------------------------------ *)

let test_auto_method_single_profile () =
  let b = bench "MGRID" in
  let auto = Driver.tune b Machine.sparc2 Trace.Train in
  (* MGRID's consultant choice is MBR (multiple contexts, components) *)
  Alcotest.(check string) "auto resolves to MBR" "MBR" (Method.name auto.Driver.method_used);
  (* the attempted-method chain ends with the committed method *)
  (match List.rev auto.Driver.attempts with
  | last :: _ ->
      Alcotest.(check string) "chain ends with the method used" "MBR"
        (Method.name last.Method.a_method);
      Alcotest.(check bool) "committed attempt converged" true last.Method.a_converged
  | [] -> Alcotest.fail "empty attempt chain");
  (* auto mode — probe included — is deterministic per seed *)
  let again = Driver.tune b Machine.sparc2 Trace.Train in
  check_identical "auto twice" auto again;
  Alcotest.(check bool) "same attempt chain" true (auto.Driver.attempts = again.Driver.attempts)

(* A converged first probe doubles as the search's base rating — same
   derived seed, same accounting slot — so auto must be bit-identical to
   forcing the chosen method. *)
let test_auto_equals_forced_deterministic () =
  let b = bench "MGRID" in
  let tune method_ =
    Peak_util.Pool.run ~domains:2 (fun pool ->
        Driver.tune ?method_ ~pool b Machine.sparc2 Trace.Train)
  in
  let auto = tune None in
  Alcotest.(check string) "auto resolves to MBR" "MBR" (Method.name auto.Driver.method_used);
  let forced = tune (Some auto.Driver.method_used) in
  check_identical "auto vs forced" auto forced

(* No pool is a pool of one: an auto session — probe, fallback walk and
   search — gives the same bits with no pool and on 1 or 4 domains. *)
let test_auto_pool_independent () =
  let b = bench "MGRID" in
  let tune pool = Driver.tune ~strategy:Strategy.Be ?pool b Machine.sparc2 Trace.Train in
  let plain = tune None in
  List.iter
    (fun domains ->
      check_identical
        (Printf.sprintf "no pool vs -j%d" domains)
        plain
        (Peak_util.Pool.run ~domains (fun p -> tune (Some p))))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Batch elimination: cumulative trajectory                            *)
(* ------------------------------------------------------------------ *)

let test_be_trajectory_cumulative () =
  let f1 = Flags.all.(0) and f2 = Flags.all.(5) in
  (* removing f1 or f2 helps; every other single-flag removal is neutral *)
  let relative ~base:_ candidate =
    if (not (Optconfig.is_enabled candidate f1)) || not (Optconfig.is_enabled candidate f2)
    then 0.97
    else 1.0
  in
  let final, stats = Search.batch_elimination ~relative Optconfig.o3 in
  Alcotest.(check bool) "f1 removed" false (Optconfig.is_enabled final f1);
  Alcotest.(check bool) "f2 removed" false (Optconfig.is_enabled final f2);
  Alcotest.(check int) "two trajectory steps" 2 (List.length stats.Search.trajectory);
  (* entries are cumulative: each extends the previous, and the last one
     is the returned configuration *)
  let configs = List.map fst stats.Search.trajectory in
  (match configs with
  | [ first; second ] ->
      Alcotest.(check int)
        "first step removes one flag" 1
        (List.length (Optconfig.enabled Optconfig.o3) - List.length (Optconfig.enabled first));
      Alcotest.(check int)
        "second step removes two flags" 2
        (List.length (Optconfig.enabled Optconfig.o3) - List.length (Optconfig.enabled second))
  | _ -> Alcotest.fail "expected exactly two entries");
  let last = List.nth configs (List.length configs - 1) in
  Alcotest.(check bool) "trajectory ends at the final config" true (Optconfig.equal last final)

(* ------------------------------------------------------------------ *)
(* CBR: unmatched target context fails loudly                          *)
(* ------------------------------------------------------------------ *)

let test_cbr_no_samples () =
  (* APSI has a non-empty context-variable set, so an impossible target
     vector can never be matched *)
  let b = bench "APSI" in
  let tsec = Tsection.make b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:11 in
  let machine = Machine.sparc2 in
  let profile = Profile.run ~seed:12 tsec trace machine in
  let sources =
    match profile.Profile.context with
    | Profile.Cbr_ok { sources; _ } -> sources
    | Profile.Cbr_no reason -> Alcotest.fail ("APSI should be CBR-applicable: " ^ reason)
  in
  Alcotest.(check bool) "context variables exist" true (sources <> []);
  let runner = Runner.create ~seed:13 tsec trace machine in
  let v = Version.compile machine tsec.Tsection.features Optconfig.o3 in
  (* a context value vector no invocation can produce *)
  let target = Array.make (List.length sources) (-1.2345e9) in
  match Cbr.rate runner ~sources ~target v with
  | (_ : Rating.t) -> Alcotest.fail "expected Rating.No_samples"
  | exception Rating.No_samples msg ->
      Alcotest.(check bool) "message names the tuning section" true
        (Oracles.contains ~sub:(Tsection.name tsec) msg)

let suites =
  [
    ( "core.parallel",
      [
        Alcotest.test_case "tune_suite deterministic across domains" `Slow
          test_tune_suite_deterministic;
        Alcotest.test_case "tune_suite keeps benchmark order" `Slow test_tune_suite_order;
        Alcotest.test_case "auto method uses a single profile" `Slow
          test_auto_method_single_profile;
        Alcotest.test_case "deterministic auto == forced chosen method" `Slow
          test_auto_equals_forced_deterministic;
        Alcotest.test_case "auto: no pool == -j1 == -j4" `Slow test_auto_pool_independent;
        Alcotest.test_case "BE trajectory is cumulative" `Quick test_be_trajectory_cumulative;
        Alcotest.test_case "CBR raises No_samples on unmatched context" `Quick
          test_cbr_no_samples;
      ] );
  ]
