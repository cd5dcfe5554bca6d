(* Allocation-regression tests for the rating hot paths.

   Each meter must stay strictly below its budget in ci/alloc_budget.json,
   the file `bench/main.exe alloc` gates on too: the steady-state
   compiled interpreter loop allocates nothing (sub-byte amortized), a
   warm rating-summary scratch stays within a small constant, and so do
   a runner step, a replayed runner step, a version compile and an
   invocation of the two whole passes (the profile's train pass, an
   evaluation's ref pass).  The
   assertions only run on the native backend — bytecode boxes every
   float and would trip any budget. *)

open Peak_ir
module B = Builder

let native = Sys.backend_type = Sys.Native

(* [Alloc_budget.json] is ci/alloc_budget.json, embedded by test/dune. *)
let check_budget ~meter what per_call =
  let open Peak_store in
  match Result.bind (Json.of_string Alloc_budget.json) (Json.get_float meter) with
  | Error e -> Alcotest.failf "ci/alloc_budget.json: %s" e
  | Ok budget ->
      if per_call >= budget then
        Alcotest.failf "%s allocates %.2f bytes per call (%s budget %.0f)" what per_call meter
          budget

(* Amortized bytes per call after two warmup calls (the warmups grow
   scratch buffers to their steady-state capacity).  Minimum of three
   measurements: background threads (the systhreads tick thread, pool
   domains from other suites) add strictly positive noise to
   Gc.allocated_bytes, and the minimum discards it. *)
let bytes_per_call f n =
  ignore (f ());
  ignore (f ());
  let once () =
    let b0 = Gc.allocated_bytes () in
    for _ = 1 to n do
      ignore (f ())
    done;
    let b1 = Gc.allocated_bytes () in
    (b1 -. b0) /. float_of_int n
  in
  Float.min (once ()) (Float.min (once ()) (once ()))

(* The Figure-2 shape: a loop-body component plus a tail component —
   the same probe the bench `alloc` experiment meters. *)
let loop_ts =
  B.ts ~name:"alloc_probe" ~params:[ "n" ] ~arrays:[ ("a", 256); ("b", 256) ]
    ~locals:[ "i"; "t" ]
    B.
      [
        for_ "i" ~lo:(ci 0) ~hi:(v "n") [ store "a" (v "i") (idx "b" (v "i") + c 1.0) ];
        "t" := idx "a" (ci 0) * c 2.0;
      ]

let test_interp_steady_state_zero_alloc () =
  if native then begin
    let cfg = Cfg.of_ts loop_ts in
    let env = Interp.make_env loop_ts in
    Interp.set_scalar env "n" 256.0;
    let compiled = Interp.compile cfg env in
    let scratch = Interp.make_scratch compiled in
    check_budget ~meter:"interp_step" "run_compiled"
      (bytes_per_call (fun () -> Interp.run_compiled compiled scratch) 1000)
  end

(* The same gate over every registry section, each after its trace's
   init and first setup, so pointer loads and stores, branches on
   non-compares and the unbound-read checks of Cfg's loop limits are
   metered too.  Re-running an invocation on the state it left is still
   a run of the same code. *)
let test_registry_sections_zero_alloc () =
  let open Peak_workload in
  if native then
    List.iter
      (fun (b : Benchmark.t) ->
        let tsec = Peak.Tsection.make b.Benchmark.ts in
        let trace = b.Benchmark.trace Trace.Train ~seed:3 in
        let env = Interp.make_env b.Benchmark.ts in
        let compiled = Interp.compile tsec.Peak.Tsection.cfg env in
        let scratch = Interp.make_scratch compiled in
        trace.Trace.init env;
        trace.Trace.setup 0 env;
        let per_call = bytes_per_call (fun () -> Interp.run_compiled compiled scratch) 40 in
        check_budget ~meter:"interp_step" (b.Benchmark.name ^ ": run_compiled") per_call)
      Registry.all

let test_summarize_into_budget () =
  if native then begin
    let rng = Peak_util.Rng.create ~seed:1 in
    let samples = List.init 80 (fun _ -> 100.0 +. Peak_util.Rng.float rng) in
    let params = Peak.Rating.default_params in
    let scratch = Peak.Rating.make_scratch () in
    check_budget ~meter:"rating_window" "summarize_into"
      (bytes_per_call (fun () -> Peak.Rating.summarize_into scratch ~params samples) 2000)
  end

(* One full simulated invocation of ART (interpret + cost model): a
   trace without a class_of cache, so the compiled interpreter runs
   every step. *)
let test_runner_step_budget () =
  if native then begin
    let open Peak_workload in
    let b = Option.get (Registry.by_name "ART") in
    let tsec = Peak.Tsection.make b.Benchmark.ts in
    let machine = Peak_machine.Machine.sparc2 in
    let trace = b.Benchmark.trace Trace.Train ~seed:3 in
    let runner = Peak.Runner.create ~seed:3 tsec trace machine in
    let version =
      Peak_compiler.Version.compile machine tsec.Peak.Tsection.features Peak_compiler.Optconfig.o3
    in
    check_budget ~meter:"runner_step" "Runner.step"
      (bytes_per_call (fun () -> Peak.Runner.step runner version) 500)
  end

(* A rating runner following another through a shared tape reads the
   recorded interpretation and pays for timing only, over integer slots:
   little more than the sample it returns. *)
let test_runner_replay_budget () =
  if native then begin
    let open Peak_workload in
    let b = Option.get (Registry.by_name "ART") in
    let tsec = Peak.Tsection.make b.Benchmark.ts in
    let build () = b.Benchmark.trace Trace.Train ~seed:3 in
    let probe = build () in
    let tape =
      Peak.Tape.shared tsec ~name:probe.Trace.name ~length:probe.Trace.length build
    in
    let machine = Peak_machine.Machine.sparc2 in
    let version =
      Peak_compiler.Version.compile machine tsec.Peak.Tsection.features Peak_compiler.Optconfig.o3
    in
    let n = 500 in
    let lead = Peak.Runner.of_tape ~seed:3 tape machine in
    for _ = 1 to (3 * n) + 2 do
      ignore (Peak.Runner.step lead version)
    done;
    let follower = Peak.Runner.of_tape ~seed:4 tape machine in
    let interpreted = Peak.Tape.interpreted tape in
    let per_call = bytes_per_call (fun () -> Peak.Runner.step follower version) n in
    Alcotest.(check int) "the follower interpreted nothing" interpreted
      (Peak.Tape.interpreted tape);
    check_budget ~meter:"runner_replay" "a replayed Runner.step" per_call
  end

(* Amortized bytes per invocation of one whole pass: [pass ()] builds
   what must not be metered and returns the pass with its invocation
   count.  Minimum of three passes, as above, each starting and ending
   on a minor collection: OCaml 5.1's [Gc.allocated_bytes] counts the
   current minor cycle's words at an eighth. *)
let bytes_per_invocation pass =
  let once () =
    let run, invocations = pass () in
    Gc.minor ();
    let b0 = Gc.allocated_bytes () in
    run ();
    Gc.minor ();
    let b1 = Gc.allocated_bytes () in
    (b1 -. b0) /. float_of_int invocations
  in
  Float.min (once ()) (Float.min (once ()) (once ()))

(* The profile's train pass reads lent counters, resolves its context
   sources once and streams their values into flat arrays: MESA, whose
   every invocation is a context of its own, is the context table's
   worst case.  The trace is built before metering. *)
let test_profile_step_budget () =
  if native then begin
    let open Peak_workload in
    let b = Option.get (Registry.by_name "MESA") in
    let tsec = Peak.Tsection.make b.Benchmark.ts in
    let per_call =
      bytes_per_invocation (fun () ->
          let trace = b.Benchmark.trace Trace.Train ~seed:3 in
          ( (fun () -> ignore (Peak.Profile.run tsec trace Peak_machine.Machine.sparc2)),
            trace.Trace.length ))
    in
    check_budget ~meter:"profile_step" "a Profile.run invocation" per_call
  end

(* Evaluation's ref pass reads lent counters and a setup that writes
   through handles; GZIP's pass is the longest.  Trace construction is
   metered too: the summary builds its own trace. *)
let test_summary_step_budget () =
  if native then begin
    let open Peak_workload in
    let b = Option.get (Registry.by_name "GZIP") in
    let invocations = (b.Benchmark.trace Trace.Ref ~seed:5).Trace.length in
    let per_call =
      bytes_per_invocation (fun () ->
          ( (fun () ->
              ignore (Peak.Driver.pass_summary b Peak_machine.Machine.pentium4 Trace.Ref)),
            invocations ))
    in
    check_budget ~meter:"summary_step" "a Driver.pass_summary invocation" per_call
  end

(* Compiling a version tests resolved flags, never names: a compile of
   ART's section under -O3 allocates its per-block workloads and little
   else. *)
let test_version_compile_budget () =
  if native then begin
    let open Peak_workload in
    let b = Option.get (Registry.by_name "ART") in
    let tsec = Peak.Tsection.make b.Benchmark.ts in
    let compile () =
      Peak_compiler.Version.compile Peak_machine.Machine.sparc2 tsec.Peak.Tsection.features
        Peak_compiler.Optconfig.o3
    in
    check_budget ~meter:"version_compile" "Version.compile" (bytes_per_call compile 500)
  end

let suites =
  [
    ( "alloc",
      [
        Alcotest.test_case "interp steady state is allocation-free" `Quick
          test_interp_steady_state_zero_alloc;
        Alcotest.test_case "every registry section runs allocation-free" `Quick
          test_registry_sections_zero_alloc;
        Alcotest.test_case "summarize_into stays within budget" `Quick
          test_summarize_into_budget;
        Alcotest.test_case "runner step stays within budget" `Quick test_runner_step_budget;
        Alcotest.test_case "replayed runner step stays within budget" `Quick
          test_runner_replay_budget;
        Alcotest.test_case "version compile stays within budget" `Quick
          test_version_compile_budget;
        Alcotest.test_case "profile pass stays within budget" `Quick test_profile_step_budget;
        Alcotest.test_case "summary pass stays within budget" `Quick test_summary_step_budget;
      ] );
  ]
