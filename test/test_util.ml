(* Unit and property tests for the peak_util substrate. *)

open Peak_util

let check_float = Alcotest.(check (float 1e-9))
let check_floatish msg ~eps a b = Alcotest.(check (float eps)) msg a b

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_float_range () =
  let t = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let x = Rng.float t in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_rng_int_range () =
  let t = Rng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let x = Rng.int t 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of range: %d" x
  done

let test_rng_int_invalid () =
  let t = Rng.create ~seed:0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let test_rng_gaussian_moments () =
  let t = Rng.create ~seed:11 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.gaussian t ~mean:5.0 ~stddev:2.0) in
  check_floatish "mean" ~eps:0.05 5.0 (Stats.mean samples);
  check_floatish "stddev" ~eps:0.05 2.0 (Stats.stddev samples)

let test_rng_exponential_mean () =
  let t = Rng.create ~seed:13 in
  let samples = Array.init 50_000 (fun _ -> Rng.exponential t ~rate:4.0) in
  check_floatish "mean 1/rate" ~eps:0.01 0.25 (Stats.mean samples)

let test_rng_split_independence () =
  let t = Rng.create ~seed:21 in
  let a = Rng.split t in
  let b = Rng.split t in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_rng_shuffle_permutation () =
  let t = Rng.create ~seed:5 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_rng_copy () =
  let t = Rng.create ~seed:3 in
  ignore (Rng.int64 t);
  let u = Rng.copy t in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 t) (Rng.int64 u)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_variance () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean a);
  check_float "variance" (32.0 /. 7.0) (Stats.variance a);
  check_float "stddev" (sqrt (32.0 /. 7.0)) (Stats.stddev a)

let test_stats_singleton () =
  check_float "variance of singleton" 0.0 (Stats.variance [| 42.0 |]);
  check_float "mean of singleton" 42.0 (Stats.mean [| 42.0 |])

let test_stats_empty () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_median () =
  check_float "odd" 3.0 (Stats.median [| 5.0; 3.0; 1.0 |]);
  check_float "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_stats_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile a ~p:0.0);
  check_float "p50" 3.0 (Stats.percentile a ~p:50.0);
  check_float "p100" 5.0 (Stats.percentile a ~p:100.0);
  check_float "p25" 2.0 (Stats.percentile a ~p:25.0)

let test_stats_mad () = check_float "mad" 1.0 (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_stats_geometric_mean () =
  check_float "gm" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |]);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geometric_mean: nonpositive element") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_welford_matches_batch () =
  let t = Rng.create ~seed:99 in
  let a = Array.init 1000 (fun _ -> Rng.gaussian t ~mean:3.0 ~stddev:1.5) in
  let w = Stats.Welford.create () in
  Array.iter (Stats.Welford.add w) a;
  check_floatish "mean" ~eps:1e-9 (Stats.mean a) (Stats.Welford.mean w);
  check_floatish "variance" ~eps:1e-9 (Stats.variance a) (Stats.Welford.variance w);
  Alcotest.(check int) "count" 1000 (Stats.Welford.count w)

let test_welford_merge () =
  let t = Rng.create ~seed:123 in
  let a = Array.init 500 (fun _ -> Rng.float t) in
  let b = Array.init 700 (fun _ -> Rng.float t) in
  let wa = Stats.Welford.create () and wb = Stats.Welford.create () in
  Array.iter (Stats.Welford.add wa) a;
  Array.iter (Stats.Welford.add wb) b;
  let merged = Stats.Welford.merge wa wb in
  let all = Array.append a b in
  check_floatish "merged mean" ~eps:1e-9 (Stats.mean all) (Stats.Welford.mean merged);
  check_floatish "merged var" ~eps:1e-9 (Stats.variance all) (Stats.Welford.variance merged)

let test_outlier_removal () =
  (* a clean cluster plus one interrupt-like spike *)
  let a = [| 10.0; 10.1; 9.9; 10.2; 9.8; 10.0; 10.1; 9.9; 55.0 |] in
  let kept = Stats.drop_outliers a in
  Alcotest.(check int) "spike dropped" 8 (Array.length kept);
  Array.iter (fun x -> Alcotest.(check bool) "no spike survives" true (x < 20.0)) kept

let test_outlier_constant_data () =
  let a = Array.make 10 3.0 in
  Alcotest.(check int) "constant kept" 10 (Array.length (Stats.drop_outliers a))

let test_outlier_keeps_majority () =
  let a = [| 1.0; 100.0; 1.0; 100.0; 1.0 |] in
  let kept = Stats.drop_outliers a in
  Alcotest.(check bool) "keeps at least half" true (Array.length kept * 2 >= Array.length a)

let test_windows () =
  let a = Array.init 10 float_of_int in
  let w = Stats.windows a ~size:3 in
  Alcotest.(check int) "three full windows" 3 (Array.length w);
  Alcotest.(check (array (float 0.0))) "first" [| 0.0; 1.0; 2.0 |] w.(0);
  Alcotest.(check (array (float 0.0))) "last" [| 6.0; 7.0; 8.0 |] w.(2)

let welch_exn name = function
  | Stats.Welch { t_stat; df } -> (t_stat, df)
  | Stats.Insufficient_data -> Alcotest.fail (name ^ ": unexpected Insufficient_data")
  | Stats.Equal -> Alcotest.fail (name ^ ": unexpected Equal")

let test_welch_t () =
  (* clearly separated populations *)
  let t, df =
    welch_exn "separated"
      (Stats.welch_t_summary ~mean1:10.0 ~var1:1.0 ~n1:30 ~mean2:12.0 ~var2:1.0 ~n2:30)
  in
  Alcotest.(check bool) "strongly negative t" true (t < -5.0);
  Alcotest.(check bool) "df near 58" true (df > 50.0 && df < 60.0);
  (* identical populations *)
  let t0, _ =
    welch_exn "identical"
      (Stats.welch_t_summary ~mean1:5.0 ~var1:2.0 ~n1:20 ~mean2:5.0 ~var2:2.0 ~n2:20)
  in
  check_float "zero t" 0.0 t0

let test_welch_insufficient_data () =
  (* a single-point sample carries no variance evidence: typed, not (0,1) *)
  let insufficient name outcome =
    match outcome with
    | Stats.Insufficient_data -> ()
    | Stats.Welch _ | Stats.Equal ->
        Alcotest.fail (name ^ ": expected Insufficient_data")
  in
  insufficient "single point"
    (Stats.welch_t_summary ~mean1:1.0 ~var1:0.0 ~n1:1 ~mean2:2.0 ~var2:0.0 ~n2:9);
  (* NaN summary statistics (an all-NaN measurement window) likewise *)
  insufficient "NaN mean"
    (Stats.welch_t_summary ~mean1:nan ~var1:1.0 ~n1:10 ~mean2:2.0 ~var2:1.0 ~n2:10);
  insufficient "infinite variance"
    (Stats.welch_t_summary ~mean1:1.0 ~var1:infinity ~n1:10 ~mean2:2.0 ~var2:1.0 ~n2:10);
  (* and the significance test treats no-evidence as no-win *)
  Alcotest.(check bool) "no evidence, no swap" false
    (Stats.significantly_less ~mean1:1.0 ~var1:0.0 ~n1:1 ~mean2:2.0 ~var2:0.0 ~n2:9);
  Alcotest.(check bool) "NaN evidence, no swap" false
    (Stats.significantly_less ~mean1:nan ~var1:1.0 ~n1:10 ~mean2:2.0 ~var2:1.0 ~n2:10)

let test_welch_zero_variance_direction () =
  (* zero pooled variance: the statistic must keep the sign of the
     deterministic difference, not collapse to +infinity *)
  let t_less, _ =
    welch_exn "less"
      (Stats.welch_t_summary ~mean1:9.0 ~var1:0.0 ~n1:10 ~mean2:10.0 ~var2:0.0 ~n2:10)
  in
  check_float "mean1 < mean2 gives -inf" neg_infinity t_less;
  let t_greater, _ =
    welch_exn "greater"
      (Stats.welch_t_summary ~mean1:11.0 ~var1:0.0 ~n1:10 ~mean2:10.0 ~var2:0.0 ~n2:10)
  in
  check_float "mean1 > mean2 gives +inf" infinity t_greater;
  (* equal constant samples: the degenerate Equal verdict, not t = 0 at
     a fabricated df = 1 *)
  (match Stats.welch_t_summary ~mean1:10.0 ~var1:0.0 ~n1:10 ~mean2:10.0 ~var2:0.0 ~n2:10 with
  | Stats.Equal -> ()
  | Stats.Welch _ -> Alcotest.fail "equal constants: expected Equal, got Welch"
  | Stats.Insufficient_data ->
      Alcotest.fail "equal constants: expected Equal, got Insufficient_data");
  Alcotest.(check bool) "exactly equal is never a win" false
    (Stats.significantly_less ~mean1:10.0 ~var1:0.0 ~n1:10 ~mean2:10.0 ~var2:0.0 ~n2:10);
  (* and the significance test now sees the deterministic win *)
  Alcotest.(check bool) "deterministic win is significant" true
    (Stats.significantly_less ~mean1:9.0 ~var1:0.0 ~n1:10 ~mean2:10.0 ~var2:0.0 ~n2:10);
  Alcotest.(check bool) "deterministic loss is not" false
    (Stats.significantly_less ~mean1:11.0 ~var1:0.0 ~n1:10 ~mean2:10.0 ~var2:0.0 ~n2:10)

let test_t_critical () =
  check_floatish "df=1" ~eps:1e-6 12.706 (Stats.t_critical95 ~df:1.0);
  check_floatish "df=10" ~eps:1e-6 2.228 (Stats.t_critical95 ~df:10.0);
  check_floatish "df=1e9 ~ normal" ~eps:1e-3 1.960 (Stats.t_critical95 ~df:1e9);
  (* interpolation monotone *)
  Alcotest.(check bool) "monotone" true
    (Stats.t_critical95 ~df:13.0 < Stats.t_critical95 ~df:11.0)

let test_significantly_less () =
  Alcotest.(check bool) "clear win" true
    (Stats.significantly_less ~mean1:9.0 ~var1:1.0 ~n1:25 ~mean2:10.0 ~var2:1.0 ~n2:25);
  Alcotest.(check bool) "noise is not a win" false
    (Stats.significantly_less ~mean1:9.9 ~var1:4.0 ~n1:5 ~mean2:10.0 ~var2:4.0 ~n2:5);
  Alcotest.(check bool) "wrong direction" false
    (Stats.significantly_less ~mean1:11.0 ~var1:1.0 ~n1:25 ~mean2:10.0 ~var2:1.0 ~n2:25)

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)
(* ------------------------------------------------------------------ *)

let test_matrix_identity_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Matrix.identity 2 in
  Alcotest.(check bool) "a*i = a" true (Matrix.equal (Matrix.mul a i) a);
  Alcotest.(check bool) "i*a = a" true (Matrix.equal (Matrix.mul i a) a)

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let b = Matrix.of_arrays [| [| 7.0; 8.0 |]; [| 9.0; 10.0 |]; [| 11.0; 12.0 |] |] in
  let expected = Matrix.of_arrays [| [| 58.0; 64.0 |]; [| 139.0; 154.0 |] |] in
  Alcotest.(check bool) "product" true (Matrix.equal (Matrix.mul a b) expected)

let test_matrix_transpose () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let t = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Matrix.rows t);
  Alcotest.(check int) "cols" 2 (Matrix.cols t);
  check_float "element" 6.0 (Matrix.get t 2 1)

let test_matrix_solve () =
  let a = Matrix.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Matrix.solve a [| 5.0; 10.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_matrix_solve_pivoting () =
  (* zero pivot in the natural order requires a row swap *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Matrix.solve a [| 2.0; 3.0 |] in
  check_float "x0" 3.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_matrix_solve_singular () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular matrix") (fun () ->
      ignore (Matrix.solve a [| 1.0; 2.0 |]))

let test_least_squares_exact () =
  (* overdetermined but consistent system recovers exact coefficients *)
  let a = Matrix.of_arrays [| [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| 3.0; 1.0 |] |] in
  let b = [| 3.0; 5.0; 7.0 |] in
  (* y = 2x + 1 *)
  let x = Matrix.least_squares a b in
  check_floatish "slope" ~eps:1e-9 2.0 x.(0);
  check_floatish "intercept" ~eps:1e-9 1.0 x.(1)

let test_least_squares_noisy () =
  let rng = Rng.create ~seed:55 in
  let n = 200 in
  let rows = Array.init n (fun _ -> [| Rng.float rng *. 100.0; 1.0 |]) in
  let b =
    Array.map (fun r -> (4.0 *. r.(0)) +. 7.0 +. Rng.gaussian rng ~mean:0.0 ~stddev:0.5) rows
  in
  let x = Matrix.least_squares (Matrix.of_arrays rows) b in
  check_floatish "slope" ~eps:0.05 4.0 x.(0);
  check_floatish "intercept" ~eps:0.5 7.0 x.(1)

let test_least_squares_rank_deficient () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |]; [| 3.0; 6.0 |] |] in
  Alcotest.check_raises "rank deficient" (Failure "Matrix.least_squares: rank deficient")
    (fun () -> ignore (Matrix.least_squares a [| 1.0; 2.0; 3.0 |]))

let test_matrix_mul_vec () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-9))) "a v" [| 5.0; 11.0 |] (Matrix.mul_vec a [| 1.0; 2.0 |])

(* ------------------------------------------------------------------ *)
(* Regression                                                          *)
(* ------------------------------------------------------------------ *)

let test_regression_paper_example () =
  (* The worked MBR example from Figure 2 of the paper: two components,
     counts [N; 1], times measured across five invocations.  Linear
     regression should recover T = [110.05; 3.75] approximately. *)
  let counts =
    [|
      [| 100.0; 1.0 |]; [| 50.0; 1.0 |]; [| 60.0; 1.0 |]; [| 55.0; 1.0 |]; [| 80.0; 1.0 |];
    |]
  in
  let times = [| 11015.0; 5508.0; 6626.0; 6044.0; 8793.0 |] in
  let f = Regression.fit ~counts ~times in
  check_floatish "T1 ~ 110" ~eps:0.5 110.05 f.coefficients.(0);
  Alcotest.(check bool) "small residual ratio" true (f.var_ratio < 1e-4)

let test_regression_var_ratio_zero_for_exact () =
  let counts = [| [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| 3.0; 1.0 |] |] in
  let times = [| 11.0; 21.0; 31.0 |] in
  let f = Regression.fit ~counts ~times in
  check_floatish "T0" ~eps:1e-6 10.0 f.coefficients.(0);
  check_floatish "T1" ~eps:1e-6 1.0 f.coefficients.(1);
  Alcotest.(check bool) "var_ratio ~ 0" true (f.var_ratio < 1e-12)

let test_regression_predict () =
  let counts = [| [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| 3.0; 1.0 |] |] in
  let times = [| 11.0; 21.0; 31.0 |] in
  let f = Regression.fit ~counts ~times in
  check_floatish "predict" ~eps:1e-6 41.0 (Regression.predict f [| 4.0; 1.0 |])

let test_ridge_underdetermined () =
  (* the staged-screen regime: more unknowns than observations; plain
     least squares is impossible, the ridge solve must stay finite and
     recover the signal's sign *)
  let counts = [| [| 1.0; -1.0; 1.0 |]; [| -1.0; 1.0; 1.0 |] |] in
  let times = [| 0.4; -0.4 |] in
  let f = Regression.ridge ~counts ~times () in
  Alcotest.(check int) "3 coefficients" 3 (Array.length f.Regression.coefficients);
  Array.iter
    (fun c -> Alcotest.(check bool) "finite" true (Float.is_finite c))
    f.Regression.coefficients;
  Alcotest.(check bool) "signs recovered" true
    (f.Regression.coefficients.(0) > 0.0 && f.Regression.coefficients.(1) < 0.0)

let test_ridge_singular_design () =
  (* a duplicated column makes the unregularised normal equations
     singular; ridge splits the effect and still predicts correctly *)
  let counts = [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |] in
  let times = [| 2.0; 4.0; 6.0 |] in
  let f = Regression.ridge ~counts ~times () in
  Array.iter
    (fun c -> Alcotest.(check bool) "finite" true (Float.is_finite c))
    f.Regression.coefficients;
  check_floatish "predict on the collinear line" ~eps:1e-3 2.0
    (Regression.predict f [| 1.0; 1.0 |]);
  Alcotest.(check bool) "near-zero residual" true (f.Regression.var_ratio < 1e-6)

let test_fit_singular_falls_back_to_ridge () =
  (* the same design through [fit]: least squares raises rank-deficient
     internally, and the fallback must deliver finite coefficients
     instead of an exception or NaNs *)
  let counts = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |]; [| 3.0; 6.0 |] |] in
  let times = [| 1.0; 2.0; 3.0 |] in
  let f = Regression.fit ~counts ~times in
  Array.iter
    (fun c -> Alcotest.(check bool) "finite" true (Float.is_finite c))
    f.Regression.coefficients;
  Alcotest.(check bool) "finite var ratio" true (Float.is_finite f.Regression.var_ratio);
  check_floatish "predict" ~eps:1e-3 1.0 (Regression.predict f [| 1.0; 2.0 |])

let test_linear_relation_positive () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 5.0; 8.0; 11.0; 14.0 |] in
  match Regression.linear_relation xs ys with
  | Some (alpha, beta) ->
      check_floatish "alpha" ~eps:1e-9 3.0 alpha;
      check_floatish "beta" ~eps:1e-9 2.0 beta
  | None -> Alcotest.fail "expected linear relation"

let test_linear_relation_negative () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 1.0; 4.0; 9.0; 16.0 |] in
  Alcotest.(check bool) "quadratic is not linear" true (Regression.linear_relation xs ys = None)

let test_linear_relation_constant () =
  let xs = [| 2.0; 2.0; 2.0 |] in
  (match Regression.linear_relation xs [| 7.0; 7.0; 7.0 |] with
  | Some (_, beta) -> check_floatish "beta" ~eps:1e-9 7.0 beta
  | None -> Alcotest.fail "two constants are linearly related");
  Alcotest.(check bool) "constant x, varying y" true
    (Regression.linear_relation xs [| 1.0; 2.0; 3.0 |] = None)

let test_pearson () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_floatish "perfect" ~eps:1e-9 1.0 (Regression.pearson xs [| 2.0; 4.0; 6.0; 8.0 |]);
  check_floatish "anti" ~eps:1e-9 (-1.0) (Regression.pearson xs [| 8.0; 6.0; 4.0; 2.0 |]);
  check_floatish "constant" ~eps:1e-9 0.0 (Regression.pearson xs [| 5.0; 5.0; 5.0; 5.0 |])

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] () in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains alpha" true (contains s "alpha");
  Alcotest.(check bool) "contains header" true (contains s "value")

let test_table_arity_check () =
  let t = Table.create ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_fmt () =
  Alcotest.(check string) "float" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "percent" "26.0%" (Table.fmt_percent 0.26)

let test_table_fmt_signed_percent () =
  Alcotest.(check string) "positive gains carry a sign" "+3.1%" (Table.fmt_signed_percent 3.14);
  Alcotest.(check string) "losses too" "-2.0%" (Table.fmt_signed_percent (-2.0));
  (* everything that rounds to zero prints as the one canonical "0.0%" *)
  Alcotest.(check string) "exact zero" "0.0%" (Table.fmt_signed_percent 0.0);
  Alcotest.(check string) "negative zero" "0.0%" (Table.fmt_signed_percent (-0.0));
  Alcotest.(check string) "tiny regression" "0.0%" (Table.fmt_signed_percent (-0.04));
  Alcotest.(check string) "tiny gain" "0.0%" (Table.fmt_signed_percent 0.04);
  (* rounding happens before the sign decision at any precision *)
  Alcotest.(check string) "two decimals keeps -0.04"
    "-0.04%"
    (Table.fmt_signed_percent ~decimals:2 (-0.04));
  Alcotest.(check string) "zero decimals" "0%" (Table.fmt_signed_percent ~decimals:0 (-0.4));
  Alcotest.(check string) "zero decimals positive" "+1%" (Table.fmt_signed_percent ~decimals:0 0.9)

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let nonempty_floats =
  QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-1000.0) 1000.0))

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies within min/max" ~count:200 nonempty_floats (fun a ->
      let m = Stats.mean a in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      m >= lo -. 1e-9 && m <= hi +. 1e-9)

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance is nonnegative" ~count:200 nonempty_floats (fun a ->
      Stats.variance a >= -1e-9)

let prop_outliers_subset =
  QCheck.Test.make ~name:"drop_outliers returns a subset" ~count:200 nonempty_floats (fun a ->
      let kept = Stats.drop_outliers a in
      Array.length kept <= Array.length a
      && Array.for_all (fun x -> Array.exists (fun y -> y = x) a) kept)

let prop_welford_matches =
  QCheck.Test.make ~name:"welford matches batch stats" ~count:200 nonempty_floats (fun a ->
      let w = Stats.Welford.create () in
      Array.iter (Stats.Welford.add w) a;
      abs_float (Stats.Welford.mean w -. Stats.mean a) < 1e-6
      && abs_float (Stats.Welford.variance w -. Stats.variance a) < 1e-3)

let prop_solve_roundtrip =
  (* random well-conditioned diagonally-dominant systems: solving then
     multiplying reproduces the right-hand side *)
  QCheck.Test.make ~name:"solve then multiply reproduces rhs" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let a =
        Matrix.init ~rows:n ~cols:n ~f:(fun r c ->
            if r = c then 10.0 +. Rng.float rng else Rng.float rng -. 0.5)
      in
      let b = Array.init n (fun _ -> Rng.float rng *. 10.0) in
      let x = Matrix.solve a b in
      let b' = Matrix.mul_vec a x in
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-6) b b')

let prop_least_squares_recovers_exact =
  QCheck.Test.make ~name:"least squares recovers planted coefficients" ~count:100
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let k = 1 + Rng.int rng 4 in
      let n = k + 5 + Rng.int rng 20 in
      let coeff = Array.init k (fun _ -> Rng.float rng *. 10.0) in
      let rows =
        Array.init n (fun _ ->
            Array.init k (fun i -> if i = k - 1 then 1.0 else Rng.float rng *. 50.0))
      in
      let b =
        Array.map
          (fun r ->
            let acc = ref 0.0 in
            Array.iteri (fun i c -> acc := !acc +. (c *. coeff.(i))) r;
            !acc)
          rows
      in
      try
        let x = Matrix.least_squares (Matrix.of_arrays rows) b in
        Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-5) coeff x
      with Failure _ -> QCheck.assume_fail ())

let prop_outlier_spike_rejected =
  (* the k=3.5 rule: a spike far outside a bounded cluster is always
     rejected, and nothing outside the cluster survives *)
  QCheck.Test.make ~name:"drop_outliers rejects a planted far spike" ~count:200
    QCheck.(pair (int_range 10 50) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let cluster = Array.init n (fun _ -> Rng.float rng) in
      let spike = 1000.0 +. Rng.float rng in
      let a = Array.append cluster [| spike |] in
      let kept = Stats.drop_outliers a in
      Array.length kept > 0
      && Array.for_all (fun x -> x <> spike) kept
      && Array.for_all (fun x -> x >= 0.0 && x <= 1.0) kept)

let prop_outlier_zero_mad_inert =
  (* zero MAD (a majority of identical samples) disables the filter:
     the input comes back unchanged, spikes and all *)
  QCheck.Test.make ~name:"drop_outliers is inert on zero MAD" ~count:200
    QCheck.(triple (float_range (-100.0) 100.0) (small_list (float_range (-1e6) 1e6))
        (int_range 0 1000))
    (fun (c, others, seed) ->
      let rng = Rng.create ~seed in
      let a = Array.of_list (List.concat_map (fun x -> [ c; c; x ]) (c :: others)) in
      Rng.shuffle rng a;
      Stats.drop_outliers a = a)

let prop_outlier_mask_agrees =
  QCheck.Test.make ~name:"outlier_mask agrees with drop_outliers" ~count:200 nonempty_floats
    (fun a ->
      let mask = Stats.outlier_mask a in
      let kept = ref [] in
      Array.iteri (fun i keep -> if keep then kept := a.(i) :: !kept) mask;
      Array.of_list (List.rev !kept) = Stats.drop_outliers a)

let prop_outlier_keeps_half =
  QCheck.Test.make ~name:"drop_outliers keeps at least half" ~count:200 nonempty_floats
    (fun a ->
      2 * Array.length (Stats.drop_outliers a) >= Array.length a)

let prop_linear_relation_tolerance =
  (* tolerance is a relative band on max |y|: a perturbation well inside
     it keeps the relation, one well outside breaks it *)
  QCheck.Test.make ~name:"linear_relation honors its tolerance" ~count:200
    QCheck.(triple (float_range (-5.0) 5.0) (float_range (-100.0) 100.0) (int_range 0 1000))
    (fun (alpha, beta, seed) ->
      let rng = Rng.create ~seed in
      let tolerance = 1e-3 in
      let xs = Array.init 20 (fun _ -> Rng.float rng *. 100.0) in
      let ys = Array.map (fun x -> (alpha *. x) +. beta) xs in
      let scale = Float.max 1.0 (Array.fold_left (fun m y -> Float.max m (abs_float y)) 0.0 ys) in
      let j = 2 + Rng.int rng (Array.length xs - 2) in
      let perturbed factor =
        let ys = Array.copy ys in
        ys.(j) <- ys.(j) +. (factor *. tolerance *. scale);
        Regression.linear_relation ~tolerance xs ys
      in
      perturbed 0.1 <> None && perturbed 10.0 = None)

let prop_welch_constant_pairs =
  (* constant samples: equal means yield the degenerate Equal verdict,
     unequal means a signed infinite statistic in the right direction *)
  QCheck.Test.make ~name:"welch on constant-sample pairs" ~count:300
    QCheck.(
      triple (float_range (-1000.0) 1000.0) (float_range (-1000.0) 1000.0)
        (pair (int_range 2 50) (int_range 2 50)))
    (fun (c1, c2, (n1, n2)) ->
      match Stats.welch_t_summary ~mean1:c1 ~var1:0.0 ~n1 ~mean2:c2 ~var2:0.0 ~n2 with
      | Stats.Equal -> c1 = c2
      | Stats.Welch { t_stat; df } ->
          df = 1.0
          && ((c1 < c2 && t_stat = neg_infinity) || (c1 > c2 && t_stat = infinity))
      | Stats.Insufficient_data -> false)

let prop_welch_constant_significance =
  (* on constant pairs, significantly_less is exactly "strictly less":
     deterministic wins count, equality and losses never do *)
  QCheck.Test.make ~name:"significantly_less on constant-sample pairs" ~count:300
    QCheck.(pair (float_range (-1000.0) 1000.0) (float_range (-1000.0) 1000.0))
    (fun (c1, c2) ->
      Stats.significantly_less ~mean1:c1 ~var1:0.0 ~n1:10 ~mean2:c2 ~var2:0.0 ~n2:10
      = (c1 < c2))

let prop_linear_relation_detects_planted =
  QCheck.Test.make ~name:"linear_relation detects planted relation" ~count:200
    QCheck.(triple (float_range (-5.0) 5.0) (float_range (-100.0) 100.0) (int_range 0 1000))
    (fun (alpha, beta, seed) ->
      let rng = Rng.create ~seed in
      let xs = Array.init 20 (fun _ -> Rng.float rng *. 100.0) in
      let ys = Array.map (fun x -> (alpha *. x) +. beta) xs in
      match Regression.linear_relation xs ys with
      | Some (a, b) -> abs_float (a -. alpha) < 1e-4 && abs_float (b -. beta) < 1e-2
      | None -> false)

(* The unboxed generator against the boxed one it replaced: from a
   random seed, a random sequence of draws, copies and splits yields the
   same values bit for bit on both. *)
type rng_op =
  | Op_int64
  | Op_float
  | Op_int of int
  | Op_bool
  | Op_gaussian of float * float
  | Op_exponential of float
  | Op_shuffle of int
  | Op_copy
  | Op_split of bool  (** continue on the child when [true] *)

let gen_rng_op =
  let open QCheck.Gen in
  frequency
    [
      (3, return Op_int64);
      (3, return Op_float);
      (3, map (fun b -> Op_int b) (oneof [ int_range 1 100; int_range 1 max_int ]));
      (2, return Op_bool);
      (2, map2 (fun m s -> Op_gaussian (m, s)) (float_range (-5.0) 5.0) (float_range 0.0 3.0));
      (2, map (fun r -> Op_exponential r) (float_range 0.01 10.0));
      (1, map (fun n -> Op_shuffle n) (int_range 0 12));
      (1, return Op_copy);
      (1, map (fun c -> Op_split c) bool);
    ]

let prop_rng_matches_reference =
  let module R = Oracles.Reference_rng in
  QCheck.Test.make ~name:"Rng streams equal the boxed reference" ~count:300
    QCheck.(
      make
        ~print:(fun (seed, ops) -> Printf.sprintf "seed %d, %d ops" seed (List.length ops))
        Gen.(pair (oneof [ int; int_range (-3) 3 ]) (list_size (int_range 1 60) gen_rng_op)))
    (fun (seed, ops) ->
      let bits = Int64.bits_of_float in
      let rec go a r = function
        | [] -> Rng.int64 a = R.int64 r
        | op :: rest ->
            let same, a, r =
              match op with
              | Op_int64 -> (Rng.int64 a = R.int64 r, a, r)
              | Op_float -> (bits (Rng.float a) = bits (R.float r), a, r)
              | Op_int b -> (Rng.int a b = R.int r b, a, r)
              | Op_bool -> (Rng.bool a = R.bool r, a, r)
              | Op_gaussian (mean, stddev) ->
                  (bits (Rng.gaussian a ~mean ~stddev) = bits (R.gaussian r ~mean ~stddev), a, r)
              | Op_exponential rate ->
                  (bits (Rng.exponential a ~rate) = bits (R.exponential r ~rate), a, r)
              | Op_shuffle n ->
                  let x = Array.init n Fun.id and y = Array.init n Fun.id in
                  Rng.shuffle a x;
                  R.shuffle r y;
                  (x = y, a, r)
              | Op_copy ->
                  (* the copy and the original go on identically *)
                  let a' = Rng.copy a and r' = R.copy r in
                  (Rng.int64 a = R.int64 r, a', r')
              | Op_split child ->
                  let a' = Rng.split a and r' = R.split r in
                  let parents = Rng.int64 a = R.int64 r in
                  let children = Rng.int64 a' = R.int64 r' in
                  (parents && children, (if child then a' else a), if child then r' else r)
            in
            same && go a r rest
      in
      go (Rng.create ~seed) (R.create ~seed) ops)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rng_matches_reference;
      prop_mean_bounded;
      prop_variance_nonneg;
      prop_outliers_subset;
      prop_welford_matches;
      prop_outlier_spike_rejected;
      prop_outlier_zero_mad_inert;
      prop_outlier_mask_agrees;
      prop_outlier_keeps_half;
      prop_solve_roundtrip;
      prop_least_squares_recovers_exact;
      prop_welch_constant_pairs;
      prop_welch_constant_significance;
      prop_linear_relation_detects_planted;
      prop_linear_relation_tolerance;
    ]

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
        Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
        Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        Alcotest.test_case "split independence" `Quick test_rng_split_independence;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "copy" `Quick test_rng_copy;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
        Alcotest.test_case "singleton" `Quick test_stats_singleton;
        Alcotest.test_case "empty input" `Quick test_stats_empty;
        Alcotest.test_case "median" `Quick test_stats_median;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "mad" `Quick test_stats_mad;
        Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
        Alcotest.test_case "welford batch equivalence" `Quick test_welford_matches_batch;
        Alcotest.test_case "welford merge" `Quick test_welford_merge;
        Alcotest.test_case "outlier removal" `Quick test_outlier_removal;
        Alcotest.test_case "outliers constant data" `Quick test_outlier_constant_data;
        Alcotest.test_case "outliers keep majority" `Quick test_outlier_keeps_majority;
        Alcotest.test_case "windows" `Quick test_windows;
        Alcotest.test_case "welch t" `Quick test_welch_t;
        Alcotest.test_case "welch t types insufficient data" `Quick
          test_welch_insufficient_data;
        Alcotest.test_case "welch t zero-variance direction" `Quick
          test_welch_zero_variance_direction;
        Alcotest.test_case "t critical" `Quick test_t_critical;
        Alcotest.test_case "significantly less" `Quick test_significantly_less;
      ] );
    ( "util.matrix",
      [
        Alcotest.test_case "identity" `Quick test_matrix_identity_mul;
        Alcotest.test_case "product" `Quick test_matrix_mul;
        Alcotest.test_case "transpose" `Quick test_matrix_transpose;
        Alcotest.test_case "solve" `Quick test_matrix_solve;
        Alcotest.test_case "solve with pivoting" `Quick test_matrix_solve_pivoting;
        Alcotest.test_case "solve singular" `Quick test_matrix_solve_singular;
        Alcotest.test_case "least squares exact" `Quick test_least_squares_exact;
        Alcotest.test_case "least squares noisy" `Quick test_least_squares_noisy;
        Alcotest.test_case "least squares rank deficient" `Quick
          test_least_squares_rank_deficient;
        Alcotest.test_case "mul_vec" `Quick test_matrix_mul_vec;
      ] );
    ( "util.regression",
      [
        Alcotest.test_case "paper figure 2 example" `Quick test_regression_paper_example;
        Alcotest.test_case "exact fit var ratio" `Quick test_regression_var_ratio_zero_for_exact;
        Alcotest.test_case "predict" `Quick test_regression_predict;
        Alcotest.test_case "ridge underdetermined" `Quick test_ridge_underdetermined;
        Alcotest.test_case "ridge singular design" `Quick test_ridge_singular_design;
        Alcotest.test_case "fit singular fallback" `Quick test_fit_singular_falls_back_to_ridge;
        Alcotest.test_case "linear relation positive" `Quick test_linear_relation_positive;
        Alcotest.test_case "linear relation negative" `Quick test_linear_relation_negative;
        Alcotest.test_case "linear relation constant" `Quick test_linear_relation_constant;
        Alcotest.test_case "pearson" `Quick test_pearson;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "arity check" `Quick test_table_arity_check;
        Alcotest.test_case "formatting" `Quick test_table_fmt;
        Alcotest.test_case "signed percent" `Quick test_table_fmt_signed_percent;
      ] );
    ("util.properties", qcheck_cases);
  ]
