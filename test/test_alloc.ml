(* Allocation-regression tests for the rating hot paths.

   The budgets pinned here mirror ci/alloc_budget.json: the steady-state
   compiled interpreter loop allocates nothing (sub-byte amortized), a
   warm rating-summary scratch stays within a small constant, and so do
   a replayed runner step and a version compile.  The
   assertions only run on the native backend — bytecode boxes every
   float and would trip any budget. *)

open Peak_ir
module B = Builder

let native = Sys.backend_type = Sys.Native

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
    let per_call = bytes_per_call (fun () -> Interp.run_compiled compiled scratch) 1000 in
    if per_call >= 1.0 then
      Alcotest.failf "run_compiled allocates %.1f bytes/invocation (budget < 1)" per_call
  end

let test_summarize_into_budget () =
  if native then begin
    let rng = Peak_util.Rng.create ~seed:1 in
    let samples = List.init 80 (fun _ -> 100.0 +. Peak_util.Rng.float rng) in
    let params = Peak.Rating.default_params in
    let scratch = Peak.Rating.make_scratch () in
    let per_call =
      bytes_per_call (fun () -> Peak.Rating.summarize_into scratch ~params samples) 2000
    in
    if per_call > 64.0 then
      Alcotest.failf "summarize_into allocates %.1f bytes/window (budget 64)" per_call
  end

(* A rating runner following another through a shared tape reads the
   recorded interpretation and pays for timing only: about half the
   bytes of an interpreting step (budget 4096, as in
   ci/alloc_budget.json). *)
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
    if per_call > 4096.0 then
      Alcotest.failf "a replayed Runner.step allocates %.1f bytes (budget 4096)" per_call
  end

(* Compiling a version tests resolved flags, never names: a compile of
   ART's section under -O3 allocates its per-block workloads and little
   else (budget 16384, as in ci/alloc_budget.json). *)
let test_version_compile_budget () =
  if native then begin
    let open Peak_workload in
    let b = Option.get (Registry.by_name "ART") in
    let tsec = Peak.Tsection.make b.Benchmark.ts in
    let compile () =
      Peak_compiler.Version.compile Peak_machine.Machine.sparc2 tsec.Peak.Tsection.features
        Peak_compiler.Optconfig.o3
    in
    let per_call = bytes_per_call compile 500 in
    if per_call > 16384.0 then
      Alcotest.failf "Version.compile allocates %.1f bytes (budget 16384)" per_call
  end

let suites =
  [
    ( "alloc",
      [
        Alcotest.test_case "interp steady state is allocation-free" `Quick
          test_interp_steady_state_zero_alloc;
        Alcotest.test_case "summarize_into stays within budget" `Quick
          test_summarize_into_budget;
        Alcotest.test_case "replayed runner step stays within budget" `Quick
          test_runner_replay_budget;
        Alcotest.test_case "version compile stays within budget" `Quick
          test_version_compile_budget;
      ] );
  ]
