(* Tests for the PEAK core: analyses, raters, consultant, search, driver. *)

open Peak_ir
open Peak_machine
open Peak_compiler
open Peak_workload
open Peak
module B = Builder

let flag name = Option.get (Flags.by_name name)
let bench name = Option.get (Registry.by_name name)

let tsec_of ts = Tsection.make ts

(* ------------------------------------------------------------------ *)
(* Context analysis (Figure 1)                                         *)
(* ------------------------------------------------------------------ *)

let ctx_sources ts ~mutated =
  match Context_analysis.analyze (tsec_of ts) ~mutated_arrays:mutated with
  | Context_analysis.Applicable { sources; runtime_constant_arrays } ->
      Ok (sources, runtime_constant_arrays)
  | Context_analysis.Not_applicable reason -> Error reason

let test_ctx_simple_loop () =
  let ts =
    B.ts ~name:"t" ~params:[ "n"; "x" ] ~arrays:[ ("a", 8) ] ~locals:[ "i" ]
      B.[ for_ "i" ~lo:(ci 0) ~hi:(v "n") [ store "a" (v "i") (v "x") ] ]
  in
  match ctx_sources ts ~mutated:[] with
  | Ok (sources, rt) ->
      Alcotest.(check bool) "n is context" true (List.mem (Expr.Scalar "n") sources);
      (* x feeds only data, not control *)
      Alcotest.(check bool) "x is not context" false (List.mem (Expr.Scalar "x") sources);
      Alcotest.(check (list string)) "no rt arrays" [] rt
  | Error r -> Alcotest.fail r

let test_ctx_transitive_chain () =
  (* control depends on m which is computed from the input n *)
  let ts =
    B.ts ~name:"t" ~params:[ "n" ] ~locals:[ "m"; "i"; "s" ]
      B.
        [
          "m" := (v "n" * c 2.0) + c 1.0;
          for_ "i" ~lo:(ci 0) ~hi:(v "m") [ "s" := v "s" + ci 1 ];
        ]
  in
  match ctx_sources ts ~mutated:[] with
  | Ok (sources, _) ->
      Alcotest.(check bool) "n reached through m" true (List.mem (Expr.Scalar "n") sources)
  | Error r -> Alcotest.fail r

let test_ctx_constant_subscript_array () =
  let ts =
    B.ts ~name:"t" ~params:[] ~arrays:[ ("cfg", 4) ] ~locals:[ "s" ]
      B.[ when_ (idx "cfg" (ci 2) > c 0.0) [ "s" := c 1.0 ] ]
  in
  match ctx_sources ts ~mutated:[ "cfg" ] with
  | Ok (sources, _) ->
      (* cfg[2] is scalar by the paper's rule 2 even though cfg varies *)
      Alcotest.(check bool) "cfg[2] is context" true
        (List.mem (Expr.Array_elem ("cfg", Some 2)) sources)
  | Error r -> Alcotest.fail r

let test_ctx_varying_array_fails () =
  let ts =
    B.ts ~name:"t" ~params:[ "i" ] ~arrays:[ ("a", 8) ] ~locals:[ "s" ]
      B.[ when_ (idx "a" (v "i") > c 0.0) [ "s" := c 1.0 ] ]
  in
  (match ctx_sources ts ~mutated:[ "a" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mutated array driving control must fail CBR");
  (* the same array, immutable, becomes a run-time constant *)
  match ctx_sources ts ~mutated:[] with
  | Ok (_, rt) -> Alcotest.(check (list string)) "rt array" [ "a" ] rt
  | Error r -> Alcotest.fail r

let test_ctx_array_written_in_ts_fails () =
  let ts =
    B.ts ~name:"t" ~params:[ "i"; "x" ] ~arrays:[ ("a", 8) ] ~locals:[ "s" ]
      B.
        [
          store "a" (v "i") (v "x");
          when_ (idx "a" (v "i") > c 0.0) [ "s" := c 1.0 ];
        ]
  in
  match ctx_sources ts ~mutated:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "array defined in TS driving control must fail CBR"

let test_ctx_pointer_rules () =
  (* stable pointer to an unwritten scalar: context variable *)
  let ok_ts =
    B.ts ~name:"t" ~params:[] ~pointers:[ ("p", "x") ] ~locals:[ "x"; "s" ]
      B.[ when_ (deref "p" > c 0.0) [ "s" := c 1.0 ] ]
  in
  (match ctx_sources ok_ts ~mutated:[] with
  | Ok (sources, _) ->
      Alcotest.(check bool) "*p is context" true
        (List.mem (Expr.Pointer_deref "p") sources)
  | Error r -> Alcotest.fail r);
  (* retargeted pointer: fail *)
  let retarget_ts =
    B.ts ~name:"t" ~params:[] ~pointers:[ ("p", "x") ] ~locals:[ "x"; "y"; "s" ]
      B.[ ptr_set "p" "y"; when_ (deref "p" > c 0.0) [ "s" := c 1.0 ] ]
  in
  (match ctx_sources retarget_ts ~mutated:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "retargeted pointer must fail");
  (* pointee written through the pointer: fail *)
  let written_ts =
    B.ts ~name:"t" ~params:[] ~pointers:[ ("p", "x") ] ~locals:[ "x"; "s" ]
      B.[ ptr_store "p" (c 1.0); when_ (deref "p" > c 0.0) [ "s" := c 1.0 ] ]
  in
  match ctx_sources written_ts ~mutated:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "written pointee must fail"

let test_ctx_opaque_call_fails () =
  let ts =
    B.ts ~name:"t" ~params:[ "n" ] ~locals:[ "i"; "s" ]
      B.[ call "rand"; for_ "i" ~lo:(ci 0) ~hi:(v "n") [ "s" := v "s" + ci 1 ] ]
  in
  match ctx_sources ts ~mutated:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "opaque call clobbering the loop bound must fail"

let test_ctx_pure_call_is_fine () =
  let ts =
    B.ts ~name:"t" ~params:[ "n" ] ~locals:[ "i"; "s" ]
      B.[ call "sin"; for_ "i" ~lo:(ci 0) ~hi:(v "n") [ "s" := v "s" + ci 1 ] ]
  in
  match ctx_sources ts ~mutated:[] with
  | Ok (sources, _) -> Alcotest.(check bool) "n context" true (List.mem (Expr.Scalar "n") sources)
  | Error r -> Alcotest.fail r

let test_ctx_benchmark_verdicts () =
  (* the static analysis outcomes that underlie Table 1's method column *)
  let verdict name =
    let b = bench name in
    let trace = b.Benchmark.trace Trace.Train ~seed:1 in
    ctx_sources b.Benchmark.ts ~mutated:trace.Trace.mutated_arrays
  in
  (match verdict "SWIM" with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "SWIM should be CBR-analyzable: %s" r);
  (match verdict "EQUAKE" with
  | Ok (_, rt) -> Alcotest.(check bool) "rowstart is rt-constant" true (List.mem "rowstart" rt)
  | Error r -> Alcotest.failf "EQUAKE should be CBR-analyzable: %s" r);
  (match verdict "MCF" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "MCF control depends on mutated arrays");
  match verdict "ART" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ART pointees are written in the TS"

(* ------------------------------------------------------------------ *)
(* Component analysis                                                  *)
(* ------------------------------------------------------------------ *)

let test_components_constant_only () =
  let samples = Array.make 20 [| 1; 5; 10 |] in
  let comps = Component_analysis.analyze ~samples in
  Alcotest.(check int) "single constant component" 1 (Component_analysis.n_components comps);
  Alcotest.(check (list int)) "no varying reps" [] (Component_analysis.representatives comps)

let test_components_linear_merge () =
  (* header = body + 1: exactly the paper's C_b1 = α·C_b2 + β rule *)
  let samples = Array.init 20 (fun j -> [| 1; j + 1; j; j * 3 |]) in
  let comps = Component_analysis.analyze ~samples in
  (* blocks 1,2,3 are pairwise linear -> one group; + constant *)
  Alcotest.(check int) "two components" 2 (Component_analysis.n_components comps);
  Alcotest.(check bool) "blocks share a group" true
    (Component_analysis.group_of comps 1 = Component_analysis.group_of comps 2
    && Component_analysis.group_of comps 2 = Component_analysis.group_of comps 3)

let test_components_polynomial_ranks () =
  (* the MGRID shape: counts 1, T, T², T³, plus dependent T²+T *)
  let ts = [| 2; 4; 6; 10; 14; 2; 4; 6; 10; 14; 3; 5 |] in
  let samples =
    Array.map (fun t -> [| 1; t; t * t; t * t * t; (t * t) + t |]) ts
  in
  let comps = Component_analysis.analyze ~samples in
  Alcotest.(check int) "four independent components" 4 (Component_analysis.n_components comps);
  Alcotest.(check int) "one folded" 1 (List.length (Component_analysis.folded comps))

let test_components_counts_vector () =
  let samples = Array.init 10 (fun j -> [| 1; j; j * j |]) in
  let comps = Component_analysis.analyze ~samples in
  let counts = Component_analysis.counts comps [| 1; 7; 49 |] in
  Alcotest.(check int) "length" (Component_analysis.n_components comps) (Array.length counts);
  Alcotest.(check (float 0.0)) "constant last" 1.0 counts.(Array.length counts - 1)

let test_components_dominant () =
  (* block 2 runs j² times at weight 1.0; block 1 runs j times at weight
     100; over j in 0..9 the weighted mean favours block 1 *)
  let samples = Array.init 10 (fun j -> [| 1; j; j * j |]) in
  let comps = Component_analysis.analyze ~samples in
  let dominant = Component_analysis.dominant comps ~weights:[| 0.1; 100.0; 1.0 |] in
  let reps = Component_analysis.representatives comps in
  Alcotest.(check int) "dominant is block 1's component" 1 (List.nth reps dominant)

let test_components_mgrid_real () =
  let b = bench "MGRID" in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:3 in
  let profile = Profile.run tsec trace Machine.sparc2 in
  Alcotest.(check int) "mgrid has 4 components" 4
    (Component_analysis.n_components profile.Profile.components)

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let profile_of name machine =
  let b = bench name in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:3 in
  (b, tsec, Profile.run tsec trace machine)

let test_profile_swim_single_context () =
  let _, _, p = profile_of "SWIM" Machine.sparc2 in
  Alcotest.(check (option int)) "one context" (Some 1) (Profile.n_contexts p);
  match p.Profile.context with
  | Profile.Cbr_ok { sources; pruned; _ } ->
      Alcotest.(check (list string)) "all sources pruned as constants" []
        (List.map (fun _ -> "x") sources);
      Alcotest.(check bool) "n was pruned" true (List.mem (Expr.Scalar "n") pruned)
  | Profile.Cbr_no r -> Alcotest.fail r

let test_profile_apsi_contexts () =
  let _, _, p = profile_of "APSI" Machine.sparc2 in
  Alcotest.(check (option int)) "three contexts" (Some 3) (Profile.n_contexts p);
  let contexts = Profile.contexts p in
  Alcotest.(check int) "three listed" 3 (List.length contexts);
  let total = List.fold_left (fun acc s -> acc +. s.Profile.time_share) 0.0 contexts in
  Alcotest.(check (float 0.01)) "shares sum to 1" 1.0 total;
  let counts = List.fold_left (fun acc s -> acc + s.Profile.count) 0 contexts in
  Alcotest.(check int) "counts cover the trace" p.Profile.n_invocations counts

let test_profile_wupwise_two_contexts () =
  let _, _, p = profile_of "WUPWISE" Machine.sparc2 in
  Alcotest.(check (option int)) "two contexts" (Some 2) (Profile.n_contexts p)

let test_profile_no_impure_calls () =
  let _, _, p = profile_of "SWIM" Machine.sparc2 in
  Alcotest.(check bool) "no impure calls" false p.Profile.impure_calls

let test_profile_avg_invocation_positive () =
  let _, _, p = profile_of "APPLU" Machine.sparc2 in
  Alcotest.(check bool) "positive cost" true (p.Profile.avg_invocation_cycles > 0.0);
  Alcotest.(check bool) "pass total consistent" true
    (p.Profile.ts_pass_cycles
    >= p.Profile.avg_invocation_cycles *. float_of_int (p.Profile.n_invocations - 1))

(* ------------------------------------------------------------------ *)
(* Method registry                                                     *)
(* ------------------------------------------------------------------ *)

let test_method_registry () =
  Alcotest.(check int) "five methods" 5 (List.length Method.all);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Method.name m ^ " round-trips by name")
        true
        (Method.of_string (Method.name m) = Some m);
      Alcotest.(check bool)
        (Method.key m ^ " round-trips by key")
        true
        (Method.of_string (Method.key m) = Some m))
    Method.all;
  Alcotest.(check bool) "unknown name rejected" true (Method.of_string "bogus" = None);
  Alcotest.(check (list string)) "names follow registry order"
    (List.map Method.name Method.all)
    Method.names;
  (* the §3 preference chain: baselines excluded, RBR last *)
  Alcotest.(check (list string)) "auto chain is CBR > MBR > RBR"
    [ "CBR"; "MBR"; "RBR" ]
    (List.map Method.name Method.auto_chain)

(* The store cannot depend on the core library, so it mirrors the method
   name list; keep the two in lockstep. *)
let test_method_names_match_codec () =
  Alcotest.(check (list string)) "core registry == store mirror"
    (List.map Method.name Method.all)
    Peak_store.Codec.method_names;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Method.name m ^ " accepted by the store validator")
        true
        (Peak_store.Codec.valid_method (Method.name m) = Ok (Method.name m));
      Alcotest.(check bool)
        (Method.key m ^ " accepted as a session method request")
        true
        (Peak_store.Codec.valid_method_request (Method.key m) = Ok (Method.key m)))
    Method.all;
  Alcotest.(check bool) "auto accepted as a session method request" true
    (Peak_store.Codec.valid_method_request "auto" = Ok "auto");
  Alcotest.(check bool) "bogus rejected by the store validator" true
    (Result.is_error (Peak_store.Codec.valid_method "bogus"))

(* ------------------------------------------------------------------ *)
(* Consultant: the Table 1 method column                               *)
(* ------------------------------------------------------------------ *)

let test_consultant_matches_table1 () =
  List.iter
    (fun (b : Benchmark.t) ->
      let tsec = tsec_of b.Benchmark.ts in
      let trace = b.Benchmark.trace Trace.Train ~seed:23 in
      let profile = Profile.run tsec trace Machine.sparc2 in
      let advice = Consultant.advise tsec profile in
      Alcotest.(check string)
        (Printf.sprintf "%s (%s)" b.Benchmark.name b.Benchmark.ts_name)
        b.Benchmark.paper_method
        (Method.name advice.Consultant.chosen))
    Registry.all

let test_consultant_preference_order () =
  let _, tsec, p = profile_of "SWIM" Machine.sparc2 in
  let advice = Consultant.advise tsec p in
  Alcotest.(check bool) "CBR first when applicable" true
    (List.hd advice.Consultant.applicable = Method.Cbr);
  Alcotest.(check bool) "RBR always applicable here" true
    (List.mem Method.Rbr advice.Consultant.applicable)

let test_consultant_estimates_present () =
  let _, tsec, p = profile_of "APSI" Machine.sparc2 in
  let advice = Consultant.advise tsec p in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Method.name m ^ " has an estimate")
        true
        (List.mem_assoc m advice.Consultant.estimates))
    advice.Consultant.applicable

let test_consultant_context_threshold () =
  let _, tsec, p = profile_of "MGRID" Machine.sparc2 in
  let strict = Consultant.advise ~max_contexts:4 tsec p in
  Alcotest.(check bool) "mgrid CBR rejected at limit 4" true
    (not (List.mem Method.Cbr strict.Consultant.applicable));
  let loose = Consultant.advise ~max_contexts:16 tsec p in
  Alcotest.(check bool) "mgrid CBR accepted at limit 16" true
    (List.mem Method.Cbr loose.Consultant.applicable)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let make_runner ?(seed = 31) ?(machine = Machine.sparc2) name =
  let b = bench name in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed in
  let runner = Runner.create ~seed tsec trace machine in
  let version = Version.compile machine tsec.Tsection.features Optconfig.o3 in
  (runner, version, tsec, trace)

let test_runner_determinism () =
  let run () =
    let runner, version, _, _ = make_runner "APPLU" in
    List.init 30 (fun _ -> Runner.step runner version)
  in
  Alcotest.(check (list (float 0.0))) "same seed, same times" (run ()) (run ())

let test_runner_pass_wrap () =
  let runner, version, _, trace = make_runner "APPLU" in
  for _ = 1 to trace.Trace.length + 10 do
    ignore (Runner.step runner version)
  done;
  Alcotest.(check int) "second pass started" 2 (Runner.passes_started runner);
  Alcotest.(check int) "invocations counted" (trace.Trace.length + 10)
    (Runner.invocations_consumed runner)

let test_runner_class_cache () =
  let runner, version, _, _ = make_runner "SWIM" in
  for _ = 1 to 50 do
    ignore (Runner.step runner version)
  done;
  let steps = Runner.interp_steps_hint runner in
  for _ = 1 to 50 do
    ignore (Runner.step runner version)
  done;
  Alcotest.(check int) "no further interpretation needed" steps
    (Runner.interp_steps_hint runner)

let test_runner_tuning_ledger_grows () =
  let runner, version, _, _ = make_runner "APPLU" in
  let t0 = Runner.tuning_cycles runner in
  ignore (Runner.step runner version);
  let t1 = Runner.tuning_cycles runner in
  Alcotest.(check bool) "ledger grows" true (t1 > t0);
  Runner.charge_overhead runner 123.0;
  Alcotest.(check (float 1e-6)) "explicit charge" (t1 +. 123.0) (Runner.tuning_cycles runner)

let test_runner_rbr_costs_more () =
  let cost mode =
    let runner, version, _, _ = make_runner "TWOLF" in
    for _ = 1 to 40 do
      match mode with
      | `Single -> ignore (Runner.step runner version)
      | `Pair -> ignore (Runner.step_pair runner ~base:version ~experimental:version)
    done;
    Runner.tuning_cycles runner
  in
  Alcotest.(check bool) "re-execution costs more than single execution" true
    (cost `Pair > 1.5 *. cost `Single)

let test_runner_step_pair_near_parity () =
  let runner, version, _, _ = make_runner "TWOLF" in
  let ratios =
    List.init 200 (fun _ ->
        let tb, te = Runner.step_pair runner ~base:version ~experimental:version in
        te /. tb)
  in
  (* interrupt-like spikes land in the raw samples; judge parity on the
     outlier-filtered mean, as the RBR rater itself does *)
  let kept = Peak_util.Stats.drop_outliers (Array.of_list ratios) in
  Alcotest.(check (float 0.02)) "identical versions rate ~1" 1.0 (Peak_util.Stats.mean kept)

let test_runner_context_read () =
  let runner, version, _, _ = make_runner "APSI" in
  ignore (Runner.step ~context:[ Expr.Scalar "ido"; Expr.Scalar "l1" ] runner version);
  let context = Runner.context runner in
  Alcotest.(check int) "two context values" 2 (Array.length context);
  Alcotest.(check (float 0.0)) "product is 128" 128.0 (context.(0) *. context.(1))

(* ------------------------------------------------------------------ *)
(* Raters                                                              *)
(* ------------------------------------------------------------------ *)

let fast_params = { Rating.default_params with window = 20; max_invocations = 3000 }

let test_rbr_distinguishes_versions () =
  let runner, o3, tsec, _ = make_runner ~machine:Machine.pentium4 "ART" in
  let without_sa =
    Version.compile Machine.pentium4 tsec.Tsection.features
      (Optconfig.disable Optconfig.o3 (flag "strict-aliasing"))
  in
  let r = Rbr.rate ~params:fast_params runner ~base:o3 without_sa in
  Alcotest.(check bool) "experimental clearly faster" true (r.Rating.eval < 0.8);
  let r_same = Rbr.rate ~params:fast_params runner ~base:o3 o3 in
  Alcotest.(check (float 0.03)) "identical versions parity" 1.0 r_same.Rating.eval

let test_rbr_batch_agrees_with_sequential () =
  let b = bench "TWOLF" in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:31 in
  let machine = Machine.pentium4 in
  let compile c = Version.compile machine tsec.Tsection.features c in
  let base = compile Optconfig.o3 in
  let versions =
    [
      compile (Optconfig.disable Optconfig.o3 (flag "schedule-insns"));
      compile Optconfig.o3;
      compile Optconfig.o0;
    ]
  in
  let runner = Runner.create ~seed:31 tsec trace machine in
  let ratings = Rbr.rate_many ~params:fast_params runner ~base versions in
  Alcotest.(check int) "one rating per version" 3 (List.length ratings);
  (match ratings with
  | [ _; same; o0 ] ->
      Alcotest.(check (float 0.03)) "identical version rates ~1" 1.0 same.Rating.eval;
      Alcotest.(check bool) "O0 clearly slower" true (o0.Rating.eval > 1.3)
  | _ -> Alcotest.fail "wrong arity");
  (* batching consumes one invocation per batch, not per version *)
  Alcotest.(check bool) "invocations amortized" true
    ((List.hd ratings).Rating.invocations < 2 * fast_params.Rating.window + 10)

let test_rbr_batch_cheaper_than_sequential () =
  let b = bench "GZIP" in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:31 in
  let machine = Machine.pentium4 in
  let compile c = Version.compile machine tsec.Tsection.features c in
  let base = compile Optconfig.o3 in
  let versions =
    List.map
      (fun n -> compile (Optconfig.disable Optconfig.o3 (flag n)))
      [ "gcse"; "schedule-insns"; "strict-aliasing"; "loop-optimize" ]
  in
  let batched =
    let runner = Runner.create ~seed:31 tsec trace machine in
    ignore (Rbr.rate_many ~params:fast_params runner ~base versions);
    Runner.tuning_cycles runner
  in
  let sequential =
    let runner = Runner.create ~seed:31 tsec trace machine in
    List.iter (fun v -> ignore (Rbr.rate ~params:fast_params runner ~base v)) versions;
    Runner.tuning_cycles runner
  in
  Alcotest.(check bool) "batch cheaper" true (batched < sequential)

let test_cbr_rates_target_context_only () =
  let runner, version, _, _ = make_runner "APSI" in
  let sources = [ Expr.Scalar "ido"; Expr.Scalar "l1" ] in
  let r1 = Cbr.rate ~params:fast_params runner ~sources ~target:[| 1.0; 128.0 |] version in
  let r2 = Cbr.rate ~params:fast_params runner ~sources ~target:[| 32.0; 4.0 |] version in
  Alcotest.(check bool) "both converge-ish" true (r1.Rating.samples > 0 && r2.Rating.samples > 0);
  (* context (1,128): ido=1 inner loop, much loop overhead; (32,4) is the
     flat variant: the EVALs must differ measurably, showing CBR keeps
     contexts apart *)
  Alcotest.(check bool) "contexts rate differently" true
    (abs_float (r1.Rating.eval -. r2.Rating.eval)
    > 0.05 *. Float.min r1.Rating.eval r2.Rating.eval)

let test_cbr_consumes_nonmatching_invocations () =
  let runner, version, _, _ = make_runner "APSI" in
  let sources = [ Expr.Scalar "ido"; Expr.Scalar "l1" ] in
  let r = Cbr.rate ~params:fast_params runner ~sources ~target:[| 1.0; 128.0 |] version in
  Alcotest.(check bool) "needs ~3x invocations for 1/3-share context" true
    (r.Rating.invocations > 2 * r.Rating.samples)

let test_mbr_recovers_component_times () =
  let runner, version, _, _ = make_runner "MGRID" in
  let b = bench "MGRID" in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:31 in
  let profile = Profile.run tsec trace Machine.sparc2 in
  let r =
    Mbr.rate ~params:fast_params runner ~components:profile.Profile.components
      ~avg_counts:profile.Profile.avg_component_counts
      ~dominant:profile.Profile.dominant_component version
  in
  Alcotest.(check bool) "converged" true r.Rating.converged;
  (* T_avg should approximate the profile's mean invocation time *)
  let rel = abs_float (r.Rating.eval -. profile.Profile.avg_invocation_cycles)
            /. profile.Profile.avg_invocation_cycles in
  Alcotest.(check bool) "T_avg near true mean invocation time" true (rel < 0.25)

let test_mbr_dominant_mode () =
  let runner, version, _, _ = make_runner "MGRID" in
  let b = bench "MGRID" in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:31 in
  let profile = Profile.run tsec trace Machine.sparc2 in
  let r =
    Mbr.rate ~params:fast_params ~mode:Mbr.Dominant runner
      ~components:profile.Profile.components
      ~avg_counts:profile.Profile.avg_component_counts
      ~dominant:profile.Profile.dominant_component version
  in
  (* the dominant component of resid is the innermost body: a handful of
     cycles per entry *)
  Alcotest.(check bool) "plausible per-entry time" true
    (r.Rating.eval > 0.5 && r.Rating.eval < 100.0)

let test_whl_eval_includes_non_ts () =
  let runner, version, _, _ = make_runner "APPLU" in
  let r = Whl.rate runner ~non_ts_cycles:1e6 version in
  Alcotest.(check bool) "whole-program eval" true (r.Rating.eval > 1e6);
  Alcotest.(check bool) "converged by definition" true r.Rating.converged

let test_avg_matches_cbr_single_context () =
  (* SWIM has one context: AVG and CBR must agree (the paper notes this
     equivalence for SWIM and EQUAKE) *)
  let runner1, version, _, _ = make_runner "SWIM" in
  let a = Avg.rate ~params:fast_params runner1 version in
  let runner2, version2, _, _ = make_runner "SWIM" in
  let r = Cbr.rate ~params:fast_params runner2 ~sources:[] ~target:[||] version2 in
  let rel = abs_float (a.Rating.eval -. r.Rating.eval) /. r.Rating.eval in
  Alcotest.(check bool) "AVG ~ CBR on one context" true (rel < 0.05)

let test_rating_outlier_elimination () =
  (* the summarize helper must shrug off interrupt-like spikes *)
  let clean = List.init 50 (fun i -> 100.0 +. (0.1 *. float_of_int (i mod 5))) in
  let spiked = (500.0 :: clean) @ [ 900.0 ] in
  match Rating.summarize ~params:Rating.default_params spiked with
  | Rating.Insufficient _ -> Alcotest.fail "expected a summary"
  | Rating.Summary { eval; kept; _ } ->
      Alcotest.(check bool) "spikes dropped" true (kept <= List.length clean + 1);
      Alcotest.(check (float 1.0)) "eval near clean mean" 100.2 eval

let test_rating_summarize_insufficient () =
  let params = Rating.default_params in
  (* empty, single-sample and all-NaN windows are typed, not NaN *)
  (match Rating.summarize ~params [] with
  | Rating.Insufficient { observed } -> Alcotest.(check int) "empty observes 0" 0 observed
  | Rating.Summary _ -> Alcotest.fail "empty window must be insufficient");
  (match Rating.summarize ~params [ 42.0 ] with
  | Rating.Insufficient { observed } -> Alcotest.(check int) "single observes 1" 1 observed
  | Rating.Summary _ -> Alcotest.fail "single-sample window must be insufficient");
  (match Rating.summarize ~params [ nan; nan; nan; infinity ] with
  | Rating.Insufficient { observed } -> Alcotest.(check int) "all-NaN observes 0" 0 observed
  | Rating.Summary _ -> Alcotest.fail "all-NaN window must be insufficient");
  (* NaNs mixed into a usable window are dropped, not propagated *)
  match Rating.summarize ~params (nan :: List.init 50 (fun _ -> 7.0)) with
  | Rating.Insufficient _ -> Alcotest.fail "finite window must summarize"
  | Rating.Summary { eval; converged; _ } ->
      Alcotest.(check (float 1e-9)) "NaN dropped from mean" 7.0 eval;
      Alcotest.(check bool) "constant window converges" true converged

let test_mbr_no_samples_at_budget_cap () =
  (* a budget one short of the k observations the regression needs: the
     fit can never happen, and the failure must be the typed No_samples
     (like CBR), never a NaN eval leaking into the search *)
  let runner, version, _, _ = make_runner "MGRID" in
  let b = bench "MGRID" in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:31 in
  let profile = Profile.run tsec trace Machine.sparc2 in
  let k = Component_analysis.n_components profile.Profile.components in
  Alcotest.(check bool) "multi-component section" true (k >= 2);
  let params = { fast_params with Rating.max_invocations = k - 1 } in
  match
    Mbr.rate ~params runner ~components:profile.Profile.components
      ~avg_counts:profile.Profile.avg_component_counts
      ~dominant:profile.Profile.dominant_component version
  with
  | r ->
      Alcotest.fail
        (Printf.sprintf "expected No_samples, got eval=%h from %d invocation(s)"
           r.Rating.eval r.Rating.invocations)
  | exception Rating.No_samples msg ->
      Alcotest.(check bool) "message names the section" true
        (Oracles.contains ~sub:"no model fit" msg);
      (* sweep the budget across the fit boundary: whatever the cap,
         the outcome is the typed No_samples or a finite rating whose
         convergence flag is honest — never a NaN eval *)
      let min_obs = max fast_params.Rating.window (3 * k) in
      List.iter
        (fun budget ->
          let runner, version, _, _ = make_runner "MGRID" in
          let params = { fast_params with Rating.max_invocations = budget } in
          match
            Mbr.rate ~params runner ~components:profile.Profile.components
              ~avg_counts:profile.Profile.avg_component_counts
              ~dominant:profile.Profile.dominant_component version
          with
          | r ->
              Alcotest.(check bool)
                (Printf.sprintf "budget %d: eval finite" budget)
                true
                (Float.is_finite r.Rating.eval);
              Alcotest.(check bool)
                (Printf.sprintf "budget %d: budget respected" budget)
                true
                (r.Rating.invocations <= budget);
              if r.Rating.converged then
                Alcotest.(check bool)
                  (Printf.sprintf "budget %d: convergence honest" budget)
                  true
                  (r.Rating.samples >= min_obs)
          | exception Rating.No_samples _ -> ())
        [ k - 1; k; (2 * k) + 1; min_obs - 1; min_obs; 2 * min_obs ]

let test_params_signature_rejects_nonfinite () =
  (* the round-trip law holds on finite parameters… *)
  let p = { Rating.window = 40; rel_threshold = 0.01; max_invocations = 20000; outlier_k = 3.5 } in
  (match Rating.params_of_signature (Rating.params_signature p) with
  | Some p' -> Alcotest.(check bool) "finite params round-trip" true (p = p')
  | None -> Alcotest.fail "finite signature rejected");
  (* …and non-finite floats in a signature are refused, never parsed *)
  List.iter
    (fun sig_ ->
      Alcotest.(check bool) (sig_ ^ " rejected") true
        (Rating.params_of_signature sig_ = None))
    [ "w40:tinf:m20000:k3.5"; "w40:tnan:m20000:k3.5"; "w40:t0.01:m20000:kinf";
      "w40:t-inf:m20000:k3.5"; "w40:t0.01:m20000:knan" ];
  (* the shared helper underneath behaves the same way *)
  Alcotest.(check bool) "finite accepted" true (Rating.finite_float_opt "0.25" = Some 0.25);
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " not finite") true (Rating.finite_float_opt s = None))
    [ "inf"; "-inf"; "nan"; "infinity"; "bogus" ]

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

(* A synthetic oracle: three flags are harmful with independent
   multiplicative effects; everything else is mildly helpful. *)
let synthetic_cost config =
  let cost = ref 100.0 in
  let harmful = [ "strict-aliasing"; "schedule-insns"; "force-mem" ] in
  List.iter
    (fun f ->
      if Optconfig.is_enabled config (flag f) then cost := !cost *. 1.2)
    harmful;
  (* each enabled non-harmful flag helps slightly *)
  List.iter
    (fun (f : Flags.t) ->
      if (not (List.mem f.Flags.name harmful)) && Optconfig.is_enabled config f then
        cost := !cost *. 0.998)
    (Array.to_list Flags.all);
  !cost

let synthetic_relative ~base candidate = synthetic_cost candidate /. synthetic_cost base

let test_ie_finds_harmful_flags () =
  let best, stats = Search.iterative_elimination ~relative:synthetic_relative Optconfig.o3 in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " removed") false (Optconfig.is_enabled best (flag name)))
    [ "strict-aliasing"; "schedule-insns"; "force-mem" ];
  Alcotest.(check int) "all helpful flags kept" 35 (Optconfig.cardinal best);
  Alcotest.(check int) "four iterations (3 removals + stop)" 4 stats.Search.iterations;
  Alcotest.(check bool) "O(n^2) bound" true (stats.Search.ratings <= 38 * 4)

let test_be_single_pass () =
  let best, stats = Search.batch_elimination ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check int) "n ratings" 38 stats.Search.ratings;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " removed") false (Optconfig.is_enabled best (flag name)))
    [ "strict-aliasing"; "schedule-insns"; "force-mem" ]

let test_ce_matches_ie_on_independent_effects () =
  let best_ie, _ = Search.iterative_elimination ~relative:synthetic_relative Optconfig.o3 in
  let best_ce, stats_ce = Search.combined_elimination ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check bool) "same result" true (Optconfig.equal best_ie best_ce);
  let _, stats_ie = Search.iterative_elimination ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check bool) "CE rates less than IE" true
    (stats_ce.Search.ratings < stats_ie.Search.ratings)

let test_be_misses_interactions () =
  (* an interaction trap: removing either flag alone helps, removing both
     hurts.  BE measures each removal against the all-on base and blindly
     removes both; IE re-measures after each removal and keeps one. *)
  let cost config =
    let a = Optconfig.is_enabled config (flag "gcse") in
    let b = Optconfig.is_enabled config (flag "strict-aliasing") in
    match (a, b) with
    | true, true -> 120.0
    | false, false -> 140.0
    | _ -> 100.0
  in
  let relative ~base candidate = cost candidate /. cost base in
  let best_be, _ = Search.batch_elimination ~relative Optconfig.o3 in
  Alcotest.(check (float 0.0)) "BE overshoots into the bad corner" 140.0 (cost best_be);
  let best_ie, _ = Search.iterative_elimination ~relative Optconfig.o3 in
  Alcotest.(check (float 0.0)) "IE lands on the optimum" 100.0 (cost best_ie);
  Alcotest.(check bool) "IE removes exactly one" true
    (Optconfig.is_enabled best_ie (flag "gcse")
    <> Optconfig.is_enabled best_ie (flag "strict-aliasing"))

let test_random_search_improves () =
  let rng = Peak_util.Rng.create ~seed:77 in
  let best, stats = Search.random_search ~samples:200 ~rng ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check int) "200 ratings" 200 stats.Search.ratings;
  Alcotest.(check bool) "random beats O3 on this oracle" true
    (synthetic_cost best < synthetic_cost Optconfig.o3)

let test_fractional_factorial_screens_harmful () =
  let rng = Peak_util.Rng.create ~seed:9 in
  let best, stats =
    Search.fractional_factorial ~runs:24 ~rng ~relative:synthetic_relative Optconfig.o3
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " removed") false (Optconfig.is_enabled best (flag name)))
    [ "strict-aliasing"; "schedule-insns"; "force-mem" ];
  (* 2*runs screening + <= 10 confirmations + 1 combination check *)
  Alcotest.(check bool) "rating budget" true (stats.Search.ratings <= (2 * 24) + 11)

let test_fractional_factorial_never_worse_than_start () =
  (* an oracle where every flag helps: the sanity check must keep O3 *)
  let relative ~base candidate =
    let cost c = 100.0 +. float_of_int (38 - Optconfig.cardinal c) in
    cost candidate /. cost base
  in
  let rng = Peak_util.Rng.create ~seed:9 in
  let best, _ = Search.fractional_factorial ~runs:10 ~rng ~relative Optconfig.o3 in
  Alcotest.(check bool) "kept O3" true (Optconfig.equal best Optconfig.o3)

let test_ose_removes_harmful_group () =
  (* scheduling and aliasing are the harmful groups under the synthetic
     oracle; OSE's group presets should find and stack them *)
  let best, stats = Search.ose ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check bool) "strict-aliasing off" false
    (Optconfig.is_enabled best (flag "strict-aliasing"));
  Alcotest.(check bool) "schedule-insns off" false
    (Optconfig.is_enabled best (flag "schedule-insns"));
  Alcotest.(check bool) "few ratings" true (stats.Search.ratings <= 15);
  (* OSE is coarse: it drops whole groups, so helpful flags inside a
     harmful group go too (the precision the paper's IE retains) *)
  Alcotest.(check bool) "coarser than IE" true
    (Optconfig.cardinal best <= 35)

let test_exhaustive_small_space () =
  let flags = [ flag "strict-aliasing"; flag "gcse"; flag "schedule-insns" ] in
  let best, stats = Search.exhaustive ~flags ~relative:synthetic_relative Optconfig.o3 in
  Alcotest.(check int) "2^3 - 1 ratings" 7 stats.Search.ratings;
  Alcotest.(check bool) "sa off" false (Optconfig.is_enabled best (flag "strict-aliasing"));
  Alcotest.(check bool) "sched off" false (Optconfig.is_enabled best (flag "schedule-insns"));
  Alcotest.(check bool) "gcse kept" true (Optconfig.is_enabled best (flag "gcse"))

let test_exhaustive_rejects_large_space () =
  let flags = Array.to_list Flags.all |> List.filteri (fun i _ -> i < 17) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Search.exhaustive ~flags ~relative:synthetic_relative Optconfig.o3);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Remote optimizer                                                    *)
(* ------------------------------------------------------------------ *)

let compile_cycles seconds = seconds *. Machine.pentium4.Machine.clock_ghz *. 1e9

let test_optimizer_local_blocks_once () =
  let opt = Optimizer.create ~compile_seconds:0.001 Optimizer.Local Machine.pentium4 in
  let cfg = Optconfig.o3 in
  let stall1 = Optimizer.stall_for opt ~now:0.0 cfg in
  Alcotest.(check (float 1.0)) "first use pays the compile" (compile_cycles 0.001) stall1;
  Alcotest.(check (float 0.0)) "second use free" 0.0 (Optimizer.stall_for opt ~now:10.0 cfg);
  Alcotest.(check int) "one compile" 1 (Optimizer.compiles opt)

let test_optimizer_remote_overlaps () =
  let opt = Optimizer.create ~compile_seconds:0.001 Optimizer.Remote Machine.pentium4 in
  let cfg = Optconfig.o3 in
  Optimizer.request opt ~now:0.0 cfg;
  (* asking after the compile window has passed costs nothing *)
  Alcotest.(check (float 0.0)) "fully overlapped" 0.0
    (Optimizer.stall_for opt ~now:(compile_cycles 0.002) cfg);
  (* asking immediately pays the residual *)
  let opt2 = Optimizer.create ~compile_seconds:0.001 Optimizer.Remote Machine.pentium4 in
  Optimizer.request opt2 ~now:0.0 cfg;
  let residual = Optimizer.stall_for opt2 ~now:(compile_cycles 0.0004) cfg in
  Alcotest.(check (float 1.0)) "residual wait" (compile_cycles 0.0006) residual

let test_optimizer_remote_queues () =
  (* one server: the second request waits for the first *)
  let opt = Optimizer.create ~compile_seconds:0.001 Optimizer.Remote Machine.pentium4 in
  let a = Optconfig.o3 and b = Optconfig.o0 in
  Optimizer.request opt ~now:0.0 a;
  Optimizer.request opt ~now:0.0 b;
  let stall_b = Optimizer.stall_for opt ~now:0.0 b in
  Alcotest.(check (float 1.0)) "b waits for a then compiles" (compile_cycles 0.002) stall_b;
  Alcotest.(check int) "two compiles" 2 (Optimizer.compiles opt)

let test_driver_compile_latency_accounted () =
  let b = bench "SWIM" in
  let free = Driver.tune ~method_:Method.Cbr b Machine.pentium4 Trace.Train in
  let local =
    Driver.tune ~compile:(Optimizer.Local, 0.002) ~method_:Method.Cbr b Machine.pentium4
      Trace.Train
  in
  let remote =
    Driver.tune ~compile:(Optimizer.Remote, 0.002) ~method_:Method.Cbr b Machine.pentium4
      Trace.Train
  in
  Alcotest.(check bool) "local slower than free" true
    (local.Driver.tuning_cycles > free.Driver.tuning_cycles);
  Alcotest.(check bool) "remote cheaper than local" true
    (remote.Driver.tuning_cycles < local.Driver.tuning_cycles);
  Alcotest.(check bool) "same search outcome" true
    (Optconfig.equal local.Driver.best_config free.Driver.best_config)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let test_driver_tunes_art_on_p4 () =
  let b = bench "ART" in
  let r = Driver.tune ~method_:Method.Rbr b Machine.pentium4 Trace.Train in
  Alcotest.(check bool) "strict-aliasing removed" false
    (Optconfig.is_enabled r.Driver.best_config (flag "strict-aliasing"));
  let imp = Driver.improvement_pct b Machine.pentium4 ~best:r.Driver.best_config Trace.Ref in
  Alcotest.(check bool) "large improvement (paper: 178%)" true (imp > 100.0);
  Alcotest.(check bool) "tuning time positive" true (r.Driver.tuning_seconds > 0.0)

let test_driver_method_forcing_checks () =
  let b = bench "MCF" in
  (* structural inapplicability is a typed error, distinct from the
     budget-exhaustion signal Rating.No_samples *)
  Alcotest.(check bool) "CBR on MCF rejected" true
    (try
       ignore (Driver.tune ~method_:Method.Cbr b Machine.sparc2 Trace.Train);
       false
     with Method.Not_applicable _ -> true)

let test_driver_deterministic () =
  let b = bench "APSI" in
  let r1 = Driver.tune ~seed:7 ~method_:Method.Cbr b Machine.sparc2 Trace.Train in
  let r2 = Driver.tune ~seed:7 ~method_:Method.Cbr b Machine.sparc2 Trace.Train in
  Alcotest.(check bool) "same config" true
    (Optconfig.equal r1.Driver.best_config r2.Driver.best_config);
  Alcotest.(check (float 0.0)) "same tuning time" r1.Driver.tuning_cycles r2.Driver.tuning_cycles

let test_driver_auto_method () =
  let b = bench "MGRID" in
  let tsec = tsec_of b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:3 in
  let profile = Profile.run tsec trace Machine.sparc2 in
  Alcotest.(check string) "auto picks MBR for MGRID" "MBR"
    (Method.name (Driver.auto_method profile tsec))

(* The §3 fallback walk of auto mode: APSI's consultant chain starts
   with CBR, whose probe converges, so the session commits it on the
   first attempt. *)
let test_driver_auto_first_applicable () =
  let r =
    Driver.tune ~strategy:Strategy.Be ~rating_params:fast_params (bench "APSI") Machine.sparc2
      Trace.Train
  in
  Alcotest.(check string) "CBR used" "CBR" (Method.name r.Driver.method_used);
  match r.Driver.attempts with
  | [ a ] -> Alcotest.(check bool) "the one attempt converged" true a.Method.a_converged
  | l -> Alcotest.failf "expected a single attempt, got %d" (List.length l)

let test_driver_auto_falls_back () =
  (* an impossible convergence threshold forces the switch the paper
     describes *)
  let rating_params =
    { Rating.window = 10; rel_threshold = 1e-9; max_invocations = 120; outlier_k = 3.5 }
  in
  let r =
    Driver.tune ~strategy:Strategy.Be ~rating_params (bench "APSI") Machine.sparc2 Trace.Train
  in
  Alcotest.(check bool) "more than one attempt" true (List.length r.Driver.attempts > 1)

let test_driver_evaluation_consistency () =
  let b = bench "SWIM" in
  let t1 = Driver.evaluate_program_cycles b Machine.sparc2 Optconfig.o3 Trace.Train in
  let t2 = Driver.evaluate_program_cycles b Machine.sparc2 Optconfig.o3 Trace.Train in
  Alcotest.(check (float 0.0)) "deterministic evaluation" t1 t2;
  Alcotest.(check (float 1e-6)) "O3 improvement over itself is zero" 0.0
    (Driver.improvement_pct b Machine.sparc2 ~best:Optconfig.o3 Trace.Train)

(* ------------------------------------------------------------------ *)
(* Evaluation by Eq. 1                                                 *)
(* ------------------------------------------------------------------ *)

let eval_machines = [ Machine.sparc2; Machine.pentium4 ]

(* Every (benchmark, machine) cell on train, with its pass summary and
   the per-invocation oracle's -O3 pass, built once for all cases. *)
let eval_cells =
  lazy
    (List.concat_map
       (fun (b : Benchmark.t) ->
         List.map
           (fun m ->
             ( b,
               m,
               Driver.pass_summary b m Trace.Train,
               Oracles.ts_pass_cycles b m Optconfig.o3 Trace.Train ))
           eval_machines)
       Registry.all)

(* One drawn configuration per cell: a uniform flag subset, or -O3 with
   a few flags removed (where the searches spend their ratings). *)
let arb_cell_configs =
  let open QCheck.Gen in
  let subset bits =
    Array.fold_left
      (fun c (f : Flags.t) -> if bits.(f.Flags.index) then Optconfig.enable c f else c)
      Optconfig.o0 Flags.all
  in
  let o3_minus = List.fold_left (fun c i -> Optconfig.disable c (Flags.by_index i)) Optconfig.o3 in
  let config =
    frequency
      [
        (1, map subset (array_repeat Flags.count bool));
        (1, map o3_minus (list_size (int_range 1 4) (int_bound (Flags.count - 1))));
      ]
  in
  QCheck.make
    ~print:(fun cs -> String.concat "; " (List.map Optconfig.to_string cs))
    (list_repeat (List.length eval_machines * List.length Registry.all) config)

let rel_diff a b = abs_float (a -. b) /. abs_float b

(* Eq. 1 over a whole pass is exact up to float reassociation: the
   summary's section and program times match the oracle's
   invocation-by-invocation sums, -O3's improvement over itself is
   exactly 0, and improvement_pct (its own summary) equals pricing from
   a held one, bit for bit. *)
let prop_summary_matches_oracle =
  QCheck.Test.make ~name:"pass summary = per-invocation pass, 14 benchmarks x 2 machines"
    ~count:2 arb_cell_configs (fun configs ->
      List.iter2
        (fun (b, m, s, oracle_o3) config ->
          let tag =
            Printf.sprintf "%s/%s %s" b.Benchmark.name m.Machine.name
              (Optconfig.to_string config)
          in
          let oracle = Oracles.ts_pass_cycles b m config Trace.Train in
          let section = Driver.summary_section_cycles s config in
          if rel_diff section oracle > 1e-9 then
            QCheck.Test.fail_reportf "%s: section %h vs oracle %h" tag section oracle;
          let share = b.Benchmark.time_share in
          let program = oracle +. (oracle_o3 *. (1.0 -. share) /. share) in
          if rel_diff (Driver.summary_program_cycles s config) program > 1e-9 then
            QCheck.Test.fail_reportf "%s: program cycles off the oracle's" tag;
          if Driver.summary_improvement_pct s ~best:Optconfig.o3 <> 0.0 then
            QCheck.Test.fail_reportf "%s: -O3 improves on itself" tag;
          let held = Driver.summary_improvement_pct s ~best:config in
          let fresh = Driver.improvement_pct b m ~best:config Trace.Train in
          if not (Oracles.same_float held fresh) then
            QCheck.Test.fail_reportf "%s: improvement_pct %h vs held summary %h" tag fresh held)
        (Lazy.force eval_cells) configs;
      true)

let test_report_normalization () =
  let b = bench "SWIM" in
  let r = Driver.tune ~method_:Method.Cbr b Machine.sparc2 Trace.Train in
  let norm = Report.normalized_tuning_time r in
  Alcotest.(check bool) "CBR well under WHL-equivalent cost" true (norm < 0.6);
  let r_whl = Driver.tune ~method_:Method.Whl b Machine.sparc2 Trace.Train in
  let norm_whl = Report.normalized_tuning_time r_whl in
  Alcotest.(check bool) "WHL normalizes to ~1" true (norm_whl > 0.8 && norm_whl < 1.5)

let test_report_figure7_methods () =
  let methods = Report.figure7_methods (bench "ART") Machine.pentium4 ~seed:3 in
  Alcotest.(check bool) "ART: no CBR" true (not (List.mem Method.Cbr methods));
  Alcotest.(check bool) "ART: no MBR" true (not (List.mem Method.Mbr methods));
  Alcotest.(check bool) "ART: has RBR/AVG/WHL" true
    (List.mem Method.Rbr methods && List.mem Method.Avg methods && List.mem Method.Whl methods);
  let swim = Report.figure7_methods (bench "SWIM") Machine.sparc2 ~seed:3 in
  Alcotest.(check bool) "SWIM: has CBR" true (List.mem Method.Cbr swim)

(* ------------------------------------------------------------------ *)
(* Consistency experiment                                              *)
(* ------------------------------------------------------------------ *)

let test_consistency_rbr_row () =
  let rows = Consistency.measure ~n_ratings:12 ~windows:[ 10; 80 ] (bench "TWOLF") Machine.sparc2 in
  match rows with
  | [ row ] ->
      Alcotest.(check string) "RBR used" "RBR" (Method.name row.Consistency.method_used);
      let cell w = List.find (fun c -> c.Consistency.window = w) row.Consistency.cells in
      let c10 = cell 10 and c80 = cell 80 in
      Alcotest.(check bool) "means near zero" true
        (abs_float c10.Consistency.mean_x100 < 3.0 && abs_float c80.Consistency.mean_x100 < 1.5);
      Alcotest.(check bool) "stddev shrinks with window" true
        (c80.Consistency.stddev_x100 < c10.Consistency.stddev_x100)
  | _ -> Alcotest.fail "expected one row"

let test_consistency_cbr_multi_context_rows () =
  let rows = Consistency.measure ~n_ratings:8 ~windows:[ 20 ] (bench "APSI") Machine.sparc2 in
  Alcotest.(check int) "three context rows" 3 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "context labelled" true (row.Consistency.context_label <> None))
    rows

(* [got] against the reference profile [want], bit for bit (marshalled
   without sharing, so class-cached samples the reference shares compare
   by content): every field but the context as it is, and the context's
   count, head and [Profile.contexts] against the reference's sorted
   list, its order included. *)
let check_profile tag (got : Profile.t) (want : Oracles.Reference_profile.t) =
  let bytes x = Marshal.to_string x [ Marshal.No_sharing ] in
  let module R = Oracles.Reference_profile in
  Alcotest.(check bool)
    (tag ^ ": identical fields") true
    (bytes { got with Profile.context = Profile.Cbr_no "" } = bytes (R.without_context want));
  match (got.Profile.context, want.R.context) with
  | Profile.Cbr_no r, R.Cbr_no r' -> Alcotest.(check string) (tag ^ ": reason") r' r
  | ( Profile.Cbr_ok { sources; n_contexts; head; runtime_constant_arrays; pruned; _ },
      R.Cbr_ok { sources = s; stats; runtime_constant_arrays = r; pruned = p } ) ->
      let n = List.length stats in
      Alcotest.(check bool)
        (tag ^ ": sources") true
        (bytes (sources, runtime_constant_arrays, pruned) = bytes (s, r, p));
      Alcotest.(check int) (tag ^ ": contexts") n n_contexts;
      Alcotest.(check (option int)) (tag ^ ": n_contexts") (Some n) (Profile.n_contexts got);
      Alcotest.(check bool)
        (tag ^ ": head") true
        (bytes head = bytes (match stats with s :: _ -> Some s | [] -> None));
      Alcotest.(check bool)
        (tag ^ ": dominant context") true
        (bytes (Profile.dominant_context got) = bytes head);
      Alcotest.(check bool)
        (tag ^ ": sorted contexts") true
        (bytes (Profile.contexts got) = bytes stats)
  | _ -> Alcotest.failf "%s: CBR verdicts differ" tag

(* The streaming profile against the per-sample one it replaced, on
   every benchmark, both machines and two seeds. *)
let test_profile_matches_reference () =
  List.iter
    (fun (b : Benchmark.t) ->
      let tsec = Tsection.make b.Benchmark.ts in
      List.iter
        (fun machine ->
          List.iter
            (fun seed ->
              let trace () = b.Benchmark.trace Trace.Train ~seed in
              let got = Profile.run ~seed:(seed + 1) tsec (trace ()) machine in
              let want = Oracles.Reference_profile.run ~seed:(seed + 1) tsec (trace ()) machine in
              check_profile
                (Printf.sprintf "%s/%s/seed %d" b.Benchmark.name machine.Machine.name seed)
                got want)
            [ 3; 11 ])
        [ Machine.pentium4; Machine.sparc2 ])
    Registry.all

(* A section whose invocations all cost the same on a noise-free
   machine, over a trace of [length] invocations setting x, y (a
   constant, pruned from the context) and z. *)
let tie_profiles ~length x z =
  let ts =
    B.ts ~name:"ties" ~params:[ "x"; "y"; "z" ] ~locals:[ "t" ]
      B.[ if_ (v "x" + v "y" + v "z" > c 1e9) [ "t" := c 1.0 ] [ "t" := c 1.0 ] ]
  in
  let tsec = Tsection.make ts in
  let machine = { Machine.sparc2 with Machine.noise_sigma = 0.0; spike_probability = 0.0 } in
  let trace () =
    let hx = Interp.handle "x" and hy = Interp.handle "y" and hz = Interp.handle "z" in
    Trace.make ~name:"ties" ~length (fun i env ->
        Interp.set_handle hx env (x i);
        Interp.set_handle hy env 5.0;
        Interp.set_handle hz env (z i))
  in
  (Profile.run tsec (trace ()) machine, Oracles.Reference_profile.run tsec (trace ()) machine)

(* Where contexts tie on time share, their order is the context table's
   own.  In the first section the 150 contexts (each seen twice, except
   the signed zeros and nans that compare equal) tie by the dozen; in
   the second, 64 contexts seen 4 times each share the top share, so
   the head is the first of them in the table's order, bucket and first
   occurrence deciding.  The streaming profile must order them, pick
   the head, and keep the last invocation's bits for equal vectors,
   exactly as the reference does. *)
let test_profile_ties_match_reference () =
  let special = [| 0.0; -0.0; Float.nan; -.Float.nan; 1.0; -0.0; 0.0 |] in
  let got, want =
    tie_profiles ~length:300
      (fun i ->
        if i mod 20 = 0 then special.(i / 20 mod Array.length special)
        else float_of_int (i mod 150))
      (fun i -> float_of_int (i mod 3))
  in
  (match got.Profile.context with
  | Profile.Cbr_ok { pruned; _ } ->
      Alcotest.(check int) "y pruned" 1 (List.length pruned);
      let contexts = Profile.contexts got in
      let shares =
        List.sort_uniq Float.compare (List.map (fun s -> s.Profile.time_share) contexts)
      in
      Alcotest.(check bool) "contexts tie" true (List.length shares < List.length contexts / 4)
  | Profile.Cbr_no r -> Alcotest.failf "CBR inapplicable: %s" r);
  check_profile "ties" got want;
  let got, want = tie_profiles ~length:256 (fun i -> float_of_int (i mod 64)) (fun _ -> 0.0) in
  let contexts = Profile.contexts got in
  let top = (List.hd contexts).Profile.time_share in
  Alcotest.(check bool)
    "several contexts share the top" true
    (List.length (List.filter (fun s -> s.Profile.time_share = top) contexts) > 1);
  check_profile "top ties" got want

let suites =
  [
    ( "core.context_analysis",
      [
        Alcotest.test_case "simple loop" `Quick test_ctx_simple_loop;
        Alcotest.test_case "transitive chain" `Quick test_ctx_transitive_chain;
        Alcotest.test_case "constant subscript" `Quick test_ctx_constant_subscript_array;
        Alcotest.test_case "varying array fails" `Quick test_ctx_varying_array_fails;
        Alcotest.test_case "ts-written array fails" `Quick test_ctx_array_written_in_ts_fails;
        Alcotest.test_case "pointer rules" `Quick test_ctx_pointer_rules;
        Alcotest.test_case "opaque call fails" `Quick test_ctx_opaque_call_fails;
        Alcotest.test_case "pure call fine" `Quick test_ctx_pure_call_is_fine;
        Alcotest.test_case "benchmark verdicts" `Quick test_ctx_benchmark_verdicts;
      ] );
    ( "core.components",
      [
        Alcotest.test_case "constant only" `Quick test_components_constant_only;
        Alcotest.test_case "linear merge" `Quick test_components_linear_merge;
        Alcotest.test_case "polynomial ranks" `Quick test_components_polynomial_ranks;
        Alcotest.test_case "counts vector" `Quick test_components_counts_vector;
        Alcotest.test_case "dominant" `Quick test_components_dominant;
        Alcotest.test_case "mgrid real" `Quick test_components_mgrid_real;
      ] );
    ( "core.profile",
      [
        Alcotest.test_case "swim single context" `Quick test_profile_swim_single_context;
        Alcotest.test_case "apsi contexts" `Quick test_profile_apsi_contexts;
        Alcotest.test_case "wupwise contexts" `Quick test_profile_wupwise_two_contexts;
        Alcotest.test_case "impure calls" `Quick test_profile_no_impure_calls;
        Alcotest.test_case "invocation cost" `Quick test_profile_avg_invocation_positive;
        Alcotest.test_case "equals the per-sample reference" `Quick
          test_profile_matches_reference;
        Alcotest.test_case "ties order as the reference's table" `Quick
          test_profile_ties_match_reference;
      ] );
    ( "core.method",
      [
        Alcotest.test_case "registry round-trips" `Quick test_method_registry;
        Alcotest.test_case "store mirror in lockstep" `Quick test_method_names_match_codec;
      ] );
    ( "core.consultant",
      [
        Alcotest.test_case "matches Table 1" `Quick test_consultant_matches_table1;
        Alcotest.test_case "preference order" `Quick test_consultant_preference_order;
        Alcotest.test_case "estimates" `Quick test_consultant_estimates_present;
        Alcotest.test_case "context threshold" `Quick test_consultant_context_threshold;
      ] );
    ( "core.runner",
      [
        Alcotest.test_case "determinism" `Quick test_runner_determinism;
        Alcotest.test_case "pass wrap" `Quick test_runner_pass_wrap;
        Alcotest.test_case "class cache" `Quick test_runner_class_cache;
        Alcotest.test_case "tuning ledger" `Quick test_runner_tuning_ledger_grows;
        Alcotest.test_case "rbr costs more" `Quick test_runner_rbr_costs_more;
        Alcotest.test_case "pair parity" `Quick test_runner_step_pair_near_parity;
        Alcotest.test_case "context read" `Quick test_runner_context_read;
      ] );
    ( "core.raters",
      [
        Alcotest.test_case "rbr distinguishes versions" `Quick test_rbr_distinguishes_versions;
        Alcotest.test_case "rbr batch agrees" `Quick test_rbr_batch_agrees_with_sequential;
        Alcotest.test_case "rbr batch cheaper" `Quick test_rbr_batch_cheaper_than_sequential;
        Alcotest.test_case "cbr target context" `Quick test_cbr_rates_target_context_only;
        Alcotest.test_case "cbr consumes extra invocations" `Quick
          test_cbr_consumes_nonmatching_invocations;
        Alcotest.test_case "mbr recovers times" `Quick test_mbr_recovers_component_times;
        Alcotest.test_case "mbr dominant mode" `Quick test_mbr_dominant_mode;
        Alcotest.test_case "whl whole program" `Quick test_whl_eval_includes_non_ts;
        Alcotest.test_case "avg = cbr on one context" `Quick test_avg_matches_cbr_single_context;
        Alcotest.test_case "outlier elimination" `Quick test_rating_outlier_elimination;
        Alcotest.test_case "summarize types insufficient data" `Quick
          test_rating_summarize_insufficient;
        Alcotest.test_case "mbr no-samples at budget cap" `Quick
          test_mbr_no_samples_at_budget_cap;
        Alcotest.test_case "params signature rejects non-finite" `Quick
          test_params_signature_rejects_nonfinite;
      ] );
    ( "core.search",
      [
        Alcotest.test_case "IE finds harmful flags" `Quick test_ie_finds_harmful_flags;
        Alcotest.test_case "BE single pass" `Quick test_be_single_pass;
        Alcotest.test_case "CE matches IE" `Quick test_ce_matches_ie_on_independent_effects;
        Alcotest.test_case "BE misses interactions" `Quick test_be_misses_interactions;
        Alcotest.test_case "random improves" `Quick test_random_search_improves;
        Alcotest.test_case "fractional factorial" `Quick test_fractional_factorial_screens_harmful;
        Alcotest.test_case "fractional factorial sanity" `Quick
          test_fractional_factorial_never_worse_than_start;
        Alcotest.test_case "OSE groups" `Quick test_ose_removes_harmful_group;
        Alcotest.test_case "exhaustive small" `Quick test_exhaustive_small_space;
        Alcotest.test_case "exhaustive bound" `Quick test_exhaustive_rejects_large_space;
      ] );
    ( "core.optimizer",
      [
        Alcotest.test_case "local blocks once" `Quick test_optimizer_local_blocks_once;
        Alcotest.test_case "remote overlaps" `Quick test_optimizer_remote_overlaps;
        Alcotest.test_case "remote queues" `Quick test_optimizer_remote_queues;
        Alcotest.test_case "driver accounting" `Quick test_driver_compile_latency_accounted;
      ] );
    ( "core.driver",
      [
        Alcotest.test_case "tunes ART on P4" `Slow test_driver_tunes_art_on_p4;
        Alcotest.test_case "method forcing" `Quick test_driver_method_forcing_checks;
        Alcotest.test_case "deterministic" `Quick test_driver_deterministic;
        Alcotest.test_case "auto method" `Quick test_driver_auto_method;
        Alcotest.test_case "auto: first applicable" `Quick test_driver_auto_first_applicable;
        Alcotest.test_case "auto: falls back" `Quick test_driver_auto_falls_back;
        Alcotest.test_case "evaluation" `Quick test_driver_evaluation_consistency;
        Alcotest.test_case "report normalization" `Quick test_report_normalization;
        Alcotest.test_case "figure7 methods" `Quick test_report_figure7_methods;
      ] );
    ("core.eval", List.map QCheck_alcotest.to_alcotest [ prop_summary_matches_oracle ]);
    ( "core.consistency",
      [
        Alcotest.test_case "rbr row" `Slow test_consistency_rbr_row;
        Alcotest.test_case "cbr multi-context rows" `Quick test_consistency_cbr_multi_context_rows;
      ] );
  ]
