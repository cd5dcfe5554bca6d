(* Fault injection: the fault plan's identity-keyed determinism, the
   runner's typed failure surface, and the headline differential
   oracles — under any injected fault schedule, auto == forced,
   resume-after-kill == uninterrupted, and -j1 == -j2 == -j4, all bit
   for bit, with every injected-faulty configuration quarantined. *)

open Peak_util
open Peak_machine
open Peak_compiler
open Peak_workload
open Peak_store
open Peak_sim
open Peak

(* Shared fixtures — temp dirs, crash artifacts, the bit-identity
   oracle — live in [Oracles]. *)
let bench = Oracles.bench
let with_tmpdir = Oracles.with_tmpdir
let check_identical = Oracles.check_identical
let crashed_copy = Oracles.crashed_copy

(* The fault seeds the differential oracles sweep: three distinct
   schedules. *)
let fault_seeds = [ 3; 7; 23 ]

let default_plan seed = Fault.create ~spec:Fault.default_spec ~seed ()

(* ------------------------------------------------------------------ *)
(* The fault plan: identity keying, protections, spec round-trip       *)
(* ------------------------------------------------------------------ *)

let keys = List.init 64 (Printf.sprintf "cfg%02x")

let decisions plan key =
  ( Fault.crash_faulty plan key,
    Fault.hang_faulty plan key,
    Fault.miscompiled plan key,
    List.init 30 (fun i -> Fault.exec_failure plan ~key ~attempt:0 ~invocation:i),
    List.init 8 (fun a -> Fault.exec_failure plan ~key ~attempt:a ~invocation:5),
    List.init 40 (fun i -> Fault.noise_factor plan ~key ~invocation:i) )

let test_plan_identity_keyed () =
  let spec = { Fault.default_spec with Fault.transient = 0.1; burst = 0.2 } in
  let p1 = Fault.create ~spec ~seed:9 () in
  let p2 = Fault.create ~spec ~seed:9 () in
  (* same seed, queried in opposite orders: every answer identical —
     decisions are functions of identity, never of draw order *)
  let d1 = List.map (decisions p1) keys in
  let d2 = List.rev_map (decisions p2) (List.rev keys) in
  Alcotest.(check bool) "decisions independent of query order" true (d1 = d2);
  (* a different seed gives a different schedule *)
  let p3 = Fault.create ~spec ~seed:10 () in
  Alcotest.(check bool) "different seed, different schedule" false
    (d1 = List.map (decisions p3) keys)

let test_plan_protection () =
  let spec = { Fault.no_faults with Fault.crash = 1.0; wrong = 1.0 } in
  let p = Fault.create ~spec ~seed:3 () in
  Alcotest.(check bool) "unprotected key crashes" true (Fault.crash_faulty p "base");
  Fault.protect p "base";
  Alcotest.(check bool) "protection registered" true (Fault.is_protected p "base");
  Alcotest.(check bool) "protected key never crashes" false (Fault.crash_faulty p "base");
  Alcotest.(check bool) "protected key never miscompiles" false (Fault.miscompiled p "base");
  Alcotest.(check bool) "protected key never fails at runtime" true
    (List.for_all
       (fun i -> Fault.exec_failure p ~key:"base" ~attempt:0 ~invocation:i = None)
       (List.init 50 Fun.id));
  Alcotest.(check bool) "other keys still crash" true (Fault.crash_faulty p "other")

let test_crash_is_per_config () =
  let spec = { Fault.no_faults with Fault.crash = 1.0 } in
  let p = Fault.create ~spec ~seed:7 () in
  List.iter
    (fun key ->
      (* the chosen fail ordinal sits below any rating window and is the
         same on every retry attempt — quarantine is inescapable *)
      let ordinal attempt =
        let rec go i =
          if i >= 24 then Alcotest.fail (key ^ ": no crash within 24 invocations")
          else
            match Fault.exec_failure p ~key ~attempt ~invocation:i with
            | Some Fault.Crash -> i
            | Some _ -> Alcotest.fail (key ^ ": unexpected failure kind")
            | None -> go (i + 1)
        in
        go 0
      in
      let o = ordinal 0 in
      List.iter
        (fun a -> Alcotest.(check int) (key ^ ": same ordinal on retry") o (ordinal a))
        [ 1; 2; 5 ])
    [ "a"; "b"; "c"; "d" ]

let test_transient_redraws_on_retry () =
  let spec = { Fault.no_faults with Fault.transient = 0.5 } in
  let p = Fault.create ~spec ~seed:11 () in
  let fails key attempt =
    List.exists
      (fun i -> Fault.exec_failure p ~key ~attempt ~invocation:i <> None)
      (List.init 24 Fun.id)
  in
  (* at a 50% rate some key must fail on attempt 0 and recover on a
     retry — the redraw that makes retries worth their budget *)
  Alcotest.(check bool) "some transient recovers on retry" true
    (List.exists (fun k -> fails k 0 && not (fails k 1)) keys);
  Alcotest.(check bool) "some execution is clean" true
    (List.exists (fun k -> not (fails k 0)) keys)

let test_noise_bursts () =
  let spec = { Fault.no_faults with Fault.burst = 1.0; burst_factor = 3.0 } in
  let p = Fault.create ~spec ~seed:5 () in
  Alcotest.(check (float 0.0)) "burst window amplifies" 3.0
    (Fault.noise_factor p ~key:"k" ~invocation:0);
  let quiet = Fault.create ~spec:Fault.no_faults ~seed:5 () in
  Alcotest.(check (float 0.0)) "no-fault plan is transparent" 1.0
    (Fault.noise_factor quiet ~key:"k" ~invocation:0)

let test_torn_write_decision () =
  let spec = { Fault.no_faults with Fault.tear = 1.0 } in
  let p = Fault.create ~spec ~seed:13 () in
  (match Fault.torn_write p ~flush:0 ~size:100 with
  | Some n -> Alcotest.(check bool) "tear point is a proper prefix" true (n >= 0 && n < 100)
  | None -> Alcotest.fail "tear=1.0 must tear");
  let quiet = Fault.create ~spec:Fault.no_faults ~seed:13 () in
  Alcotest.(check bool) "no-fault plan never tears" true
    (Fault.torn_write quiet ~flush:0 ~size:100 = None)

let test_spec_roundtrip () =
  let spec =
    {
      Fault.crash = 0.05;
      hang = 0.015;
      wrong = 0.02;
      transient = 0.011;
      burst = 0.125;
      burst_factor = 2.5;
      tear = 0.01;
    }
  in
  let p = Fault.create ~spec ~seed:42 () in
  (match Fault.of_string (Fault.to_string p) with
  | Error e -> Alcotest.fail ("canonical form failed to parse: " ^ e)
  | Ok p' ->
      Alcotest.(check int) "seed survives" 42 (Fault.seed p');
      Alcotest.(check bool) "spec survives bit-exactly" true (Fault.spec p' = spec);
      Alcotest.(check bool) "rebuilt plan makes identical decisions" true
        (List.map (decisions p) keys = List.map (decisions p') keys));
  (* rejects out-of-range and unknown keys *)
  List.iter
    (fun s ->
      match Fault.of_string s with
      | Ok _ -> Alcotest.fail ("accepted invalid spec: " ^ s)
      | Error _ -> ())
    [ "crash=2.0"; "burstf=0.5"; "bogus=1"; "crash" ]

(* ------------------------------------------------------------------ *)
(* The runner's failure surface                                        *)
(* ------------------------------------------------------------------ *)

let runner_fixture ?faults ?fault_attempt seed =
  let b = bench "SWIM" in
  let tsec = Tsection.make b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:11 in
  let machine = Machine.sparc2 in
  let runner = Runner.create ~seed ?faults ?fault_attempt tsec trace machine in
  let v = Version.compile machine tsec.Tsection.features Optconfig.o3 in
  (runner, v)

let step_until_failure runner v =
  let rec go i =
    if i >= 40 then Alcotest.fail "no failure within 40 invocations"
    else
      match Runner.step runner v with
      | (_ : float) -> go (i + 1)
      | exception Runner.Failed info -> info
  in
  go 0

let test_runner_crash () =
  let spec = { Fault.no_faults with Fault.crash = 1.0 } in
  let faults = Fault.create ~spec ~seed:3 () in
  let runner, v = runner_fixture ~faults 13 in
  let info = step_until_failure runner v in
  Alcotest.(check bool) "typed as a crash" true (info.Runner.failure = Runner.Crashed);
  Alcotest.(check string) "failure names the config" (Optconfig.digest Optconfig.o3)
    info.Runner.config;
  Alcotest.(check bool) "crash ordinal below the rating window" true
    (info.Runner.invocation < 24);
  Alcotest.(check bool) "doomed run charged to the ledger" true
    (Runner.tuning_cycles runner > 0.0)

let test_runner_hang () =
  let spec = { Fault.no_faults with Fault.hang = 1.0 } in
  let faults = Fault.create ~spec ~seed:3 () in
  let runner, v = runner_fixture ~faults 13 in
  let info = step_until_failure runner v in
  Alcotest.(check bool) "typed as a hang" true (info.Runner.failure = Runner.Hung);
  (* a hang charges the full watchdog budget (1e8 cycles under faults) *)
  Alcotest.(check bool) "watchdog budget charged" true
    (Runner.tuning_cycles runner >= 1e8)

let test_runner_transient_retry () =
  (* a transient that fires on attempt 0 must clear on some fresh
     attempt ordinal with the same runner seed *)
  let spec = { Fault.no_faults with Fault.transient = 0.9 } in
  let faults = Fault.create ~spec ~seed:21 () in
  let attempt_fails a =
    let runner, v = runner_fixture ~faults ~fault_attempt:a 13 in
    let rec go i =
      i < 30
      &&
      match Runner.step runner v with
      | (_ : float) -> go (i + 1)
      | exception Runner.Failed _ -> true
    in
    go 0
  in
  Alcotest.(check bool) "attempt 0 hits the transient" true (attempt_fails 0);
  Alcotest.(check bool) "some retry attempt runs clean" true
    (List.exists (fun a -> not (attempt_fails a)) [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_output_digest_differential () =
  (* equal ordinals, equal digests — across runner seeds — for a clean
     version; a miscompiled configuration corrupts the digest *)
  let clean1, v = runner_fixture 13 in
  let clean2, v2 = runner_fixture 14 in
  let d1 = Runner.output_digest clean1 v in
  let d2 = Runner.output_digest clean2 v2 in
  Alcotest.(check bool) "digest is seed-independent at equal ordinals" true
    (Int64.equal d1 d2);
  let spec = { Fault.no_faults with Fault.wrong = 1.0 } in
  let faults = Fault.create ~spec ~seed:3 () in
  let bad, vb = runner_fixture ~faults 13 in
  Alcotest.(check bool) "miscompiled output digests differently" false
    (Int64.equal d1 (Runner.output_digest bad vb));
  Alcotest.(check bool) "digest execution is charged" true
    (Runner.invocations_consumed clean1 = 1)

(* ------------------------------------------------------------------ *)
(* Driver-level differential oracles                                   *)
(* ------------------------------------------------------------------ *)

(* Completion and quarantine soundness: under the acceptance mix (5%
   crash, 2% wrong output) tuning completes on every workload, every
   condemned configuration is genuinely faulty with a matching reason,
   and — zero false negatives — every faulty configuration that was
   rated appears in the journal as failed. *)
let test_quarantine_ground_truth () =
  with_tmpdir @@ fun root ->
  let machine = Machine.sparc2 in
  let total_quarantined = ref 0 in
  List.iter
    (fun fault_seed ->
      List.iter
        (fun bname ->
          let b = bench bname in
          let faults = default_plan fault_seed in
          let meta =
            Driver.session_meta ~seed:11 ~strategy:Strategy.Be ~faults b machine Trace.Train
          in
          let dir = Filename.concat root (Printf.sprintf "%s-%d" bname fault_seed) in
          let session = Result.get_ok (Session.open_ ~dir ~meta ()) in
          let result =
            Fun.protect
              ~finally:(fun () -> Session.close session)
              (fun () ->
                Driver.tune ~seed:11 ~strategy:Strategy.Be ~store:session ~faults b machine
                  Trace.Train)
          in
          let tag = Printf.sprintf "%s seed=%d" bname fault_seed in
          Alcotest.(check bool) (tag ^ ": winner is clean") false
            (Fault.faulty faults (Optconfig.digest result.Driver.best_config));
          List.iter
            (fun (c, reason) ->
              let d = Optconfig.digest c in
              Alcotest.(check bool) (tag ^ ": quarantined config is faulty") true
                (Fault.faulty faults d);
              match reason with
              | "crashed" ->
                  Alcotest.(check bool) (tag ^ ": crash reason matches") true
                    (Fault.crash_faulty faults d)
              | "hung" ->
                  Alcotest.(check bool) (tag ^ ": hang reason matches") true
                    (Fault.hang_faulty faults d)
              | "wrong-output" ->
                  Alcotest.(check bool) (tag ^ ": wrong-output reason matches") true
                    (Fault.miscompiled faults d)
              | r -> Alcotest.fail (tag ^ ": unknown quarantine reason " ^ r))
            result.Driver.quarantined;
          total_quarantined := !total_quarantined + List.length result.Driver.quarantined;
          (* zero false negatives, checked against the journal's record
             of every configuration the session actually rated *)
          let events, dropped = Session.events ~dir ~id:meta.Peak_store.Codec.m_id in
          Alcotest.(check int) (tag ^ ": journal intact") 0 dropped;
          Alcotest.(check bool) (tag ^ ": journaled events") true (events <> []);
          List.iter
            (fun (e : Codec.event) ->
              let d = Optconfig.digest e.Codec.e_config in
              if Fault.faulty faults d && not (Fault.is_protected faults d) then
                Alcotest.(check bool)
                  (tag ^ ": faulty config " ^ d ^ " recorded as failed")
                  true
                  (e.Codec.e_fail <> None))
            events)
        [ "SWIM"; "MGRID"; "ART" ])
    fault_seeds;
  Alcotest.(check bool) "injection produced quarantines" true (!total_quarantined > 0)

let test_domains_identical_under_faults () =
  let b = bench "SWIM" in
  let machine = Machine.sparc2 in
  List.iter
    (fun fault_seed ->
      let tune domains =
        let faults = default_plan fault_seed in
        let go pool =
          Driver.tune ~seed:11 ~strategy:Strategy.Be ?pool ~faults b machine Trace.Train
        in
        if domains > 1 then Pool.run ~domains (fun p -> go (Some p)) else go None
      in
      let r1 = tune 1 in
      check_identical (Printf.sprintf "faults seed=%d -j1 vs -j2" fault_seed) r1 (tune 2);
      check_identical (Printf.sprintf "faults seed=%d -j1 vs -j4" fault_seed) r1 (tune 4))
    fault_seeds

let test_auto_equals_forced_under_faults () =
  let b = bench "MGRID" in
  List.iter
    (fun fault_seed ->
      let tune method_ =
        let faults = default_plan fault_seed in
        Pool.run ~domains:2 (fun pool ->
            Driver.tune ?method_ ~pool ~faults b Machine.sparc2 Trace.Train)
      in
      let auto = tune None in
      let forced = tune (Some auto.Driver.method_used) in
      check_identical (Printf.sprintf "faults seed=%d auto vs forced" fault_seed) auto forced)
    fault_seeds

let test_resume_identical_under_faults () =
  with_tmpdir @@ fun root ->
  let b = bench "ART" in
  let machine = Machine.sparc2 in
  let strategy = Strategy.Be in
  List.iter
    (fun fault_seed ->
      let faults = default_plan fault_seed in
      let meta = Driver.session_meta ~seed:11 ~strategy ~faults b machine Trace.Train in
      let id = meta.Codec.m_id in
      let full_dir = Filename.concat root (Printf.sprintf "full%d" fault_seed) in
      let session = Result.get_ok (Session.open_ ~dir:full_dir ~meta ()) in
      let full =
        Fun.protect
          ~finally:(fun () -> Session.close session)
          (fun () ->
            Driver.tune ~seed:11 ~strategy ~store:session ~faults b machine Trace.Train)
      in
      let n_events =
        (Result.get_ok (Session.load_info ~dir:full_dir ~id)).Session.info_events
      in
      Alcotest.(check bool) "session journaled events" true (n_events > 1);
      List.iter
        (fun domains ->
          let dst_dir =
            Filename.concat root (Printf.sprintf "crash%d_%d" fault_seed domains)
          in
          ignore (crashed_copy ~src_dir:full_dir ~dst_dir ~id ~keep:(n_events / 2));
          (* the resumed session rebuilds an equal plan from scratch —
             what `peak-tune session resume` does from stored metadata *)
          let faults = default_plan fault_seed in
          let session = Result.get_ok (Session.open_ ~dir:dst_dir ~meta ()) in
          let resumed =
            Fun.protect
              ~finally:(fun () -> Session.close session)
              (fun () ->
                let tune pool =
                  Driver.tune ~seed:11 ~strategy ?pool ~store:session ~faults b machine
                    Trace.Train
                in
                if domains > 1 then Pool.run ~domains (fun p -> tune (Some p))
                else tune None)
          in
          check_identical
            (Printf.sprintf "faults seed=%d resumed -j%d vs uninterrupted" fault_seed
               domains)
            full resumed;
          let info = Result.get_ok (Session.load_info ~dir:dst_dir ~id) in
          match info.Session.info_result with
          | None -> Alcotest.fail "resumed session has no result.json"
          | Some r ->
              Alcotest.(check int) "stored quarantine count matches"
                (List.length full.Driver.quarantined)
                (List.length r.Codec.r_quarantined))
        [ 1; 2 ];
      (* a session must not resume under a different fault plan *)
      let other = default_plan (fault_seed + 1) in
      let meta' = Driver.session_meta ~seed:11 ~strategy ~faults:other b machine Trace.Train in
      match Session.open_ ~dir:full_dir ~meta:meta' () with
      | Ok s ->
          Session.close s;
          Alcotest.fail "session reopened under a different fault plan"
      | Error msg ->
          Alcotest.(check bool) "refusal names the fault plan" true
            (Oracles.contains ~sub:"fault" (String.lowercase_ascii msg)))
    fault_seeds

(* A torn journal write mid-session: the writer dies with Torn_write
   (the simulated power cut), the torn artifact replays its surviving
   whole-line prefix, and the resumed run is bit-identical to an
   uninterrupted one. *)
let test_torn_session_resumes () =
  with_tmpdir @@ fun root ->
  let b = bench "SWIM" in
  let machine = Machine.sparc2 in
  let strategy = Strategy.Be in
  let meta = Driver.session_meta ~seed:11 ~strategy b machine Trace.Train in
  let full_dir = Filename.concat root "full" in
  let session = Result.get_ok (Session.open_ ~dir:full_dir ~meta ()) in
  let full =
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () -> Driver.tune ~seed:11 ~strategy ~store:session b machine Trace.Train)
  in
  let torn_dir = Filename.concat root "torn" in
  let tear ~flush ~size = if flush = 0 then Some (size / 2) else None in
  let session = Result.get_ok (Session.open_ ~tear ~dir:torn_dir ~meta ()) in
  (match
     Fun.protect
       ~finally:(fun () -> Session.close session)
       (fun () -> Driver.tune ~seed:11 ~strategy ~store:session b machine Trace.Train)
   with
  | (_ : Driver.result) -> Alcotest.fail "torn write did not kill the session"
  | exception Journal.Torn_write -> ());
  let info = Result.get_ok (Session.load_info ~dir:torn_dir ~id:meta.Codec.m_id) in
  Alcotest.(check bool) "torn journal kept a whole-line prefix" true
    (info.Session.info_events > 0);
  Alcotest.(check int) "one torn tail dropped" 1 info.Session.info_dropped;
  let session = Result.get_ok (Session.open_ ~dir:torn_dir ~meta ()) in
  let resumed =
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () -> Driver.tune ~seed:11 ~strategy ~store:session b machine Trace.Train)
  in
  check_identical "torn-then-resumed vs uninterrupted" full resumed

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "faults.plan",
      [
        Alcotest.test_case "decisions are identity-keyed" `Quick test_plan_identity_keyed;
        Alcotest.test_case "protected configs never fault" `Quick test_plan_protection;
        Alcotest.test_case "crashes are per-config and retry-proof" `Quick
          test_crash_is_per_config;
        Alcotest.test_case "transients redraw per attempt" `Quick
          test_transient_redraws_on_retry;
        Alcotest.test_case "noise bursts amplify measured times" `Quick test_noise_bursts;
        Alcotest.test_case "torn writes tear a proper prefix" `Quick test_torn_write_decision;
        Alcotest.test_case "spec strings round-trip" `Quick test_spec_roundtrip;
      ] );
    ( "faults.runner",
      [
        Alcotest.test_case "injected crash raises a typed failure" `Quick test_runner_crash;
        Alcotest.test_case "hang charges the watchdog budget" `Quick test_runner_hang;
        Alcotest.test_case "transient clears on a fresh attempt" `Quick
          test_runner_transient_retry;
        Alcotest.test_case "output digest is a differential check" `Quick
          test_output_digest_differential;
      ] );
    ( "faults.driver",
      [
        Alcotest.test_case "quarantine matches injected ground truth" `Slow
          test_quarantine_ground_truth;
        Alcotest.test_case "-j1 == -j2 == -j4 under faults" `Slow
          test_domains_identical_under_faults;
        Alcotest.test_case "auto == forced under faults" `Slow
          test_auto_equals_forced_under_faults;
        Alcotest.test_case "kill/resume bit-identical under faults" `Slow
          test_resume_identical_under_faults;
        Alcotest.test_case "torn journal write resumes bit-identical" `Slow
          test_torn_session_resumes;
      ] );
  ]
