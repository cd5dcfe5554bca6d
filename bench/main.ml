(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- table1 fig7ab ...

   Experiments: table1, fig7ab, fig7cd, summary, flag-effects,
   ablation-rbr, ablation-outlier, ablation-search, ablation-ranges,
   ablation-batch, ablation-compile, ablation-consultant, adaptive,
   fallback, parallel, store, faults, tracing, micro, alloc, serve,
   search, kb.

   Every pass/fail verdict goes through [Gate]: the run executes every
   requested experiment, then prints each failed check as
   "<experiment>: <message>" on stderr and exits 1. *)

open Peak_util
open Peak_machine
open Peak_compiler
open Peak_workload
open Peak

let machines = [ Machine.sparc2; Machine.pentium4 ]

let bench name = Option.get (Registry.by_name name)

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* Checks recorded by the running experiment, and the one writer of the
   BENCH_*.json reports.  An experiment always writes its report; the
   exit status after the whole run is the verdict. *)
module Gate = struct
  let experiment = ref ""
  let failures = ref []

  let check ok fmt =
    Printf.ksprintf (fun msg -> if not ok then failures := (!experiment, msg) :: !failures) fmt

  (* no check of the running experiment has failed so far *)
  let passed () = not (List.mem_assoc !experiment !failures)

  let write file json =
    let oc = open_out file in
    output_string oc (Peak_store.Json.to_string json);
    output_char oc '\n';
    close_out oc;
    note "wrote %s" file
end

(* A result as result.json records it: equal bytes mean the same winner,
   search, ledger and every other stored field. *)
let serialized r =
  Peak_store.Json.to_string (Peak_store.Codec.session_result_to_json (Driver.result_summary r))

(* Identity verdict: [a] and [b] are the same results, byte for byte. *)
let identical msg a b =
  let same = List.equal String.equal (List.map serialized a) (List.map serialized b) in
  Gate.check same "%s" msg;
  same

let yes_no ok = if ok then "yes" else "NO"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* A fresh directory under the temp dir, removed with everything in it
   when [f] returns or raises. *)
let with_temp_dir prefix f =
  let root = Filename.temp_file prefix "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

(* ================================================================== *)
(* Table 1: rating consistency                                         *)
(* ================================================================== *)

let table1 () =
  heading "Table 1: Consistency of rating approaches for selected tuning sections";
  note "Mean (StdDev) of the rating error x100, per window size.";
  note "Paper shape: both metrics shrink as the window grows; RBR means < 0.002x100;";
  note "EQUAKE shows comparatively high variation (irregular memory access).";
  let t =
    Table.create
      ~header:
        [ "Benchmark"; "Tuning Section"; "Approach"; "#invoc."; "w=10"; "w=20"; "w=40"; "w=80"; "w=160" ]
      ()
  in
  List.iter
    (fun (b : Benchmark.t) ->
      let rows = Consistency.measure ~n_ratings:20 b Machine.sparc2 in
      List.iter
        (fun (row : Consistency.row) ->
          let cells =
            List.map
              (fun (c : Consistency.cell) ->
                Printf.sprintf "%.2f(%.2f)" c.Consistency.mean_x100 c.Consistency.stddev_x100)
              row.Consistency.cells
          in
          let section =
            match row.Consistency.context_label with
            | Some l -> Printf.sprintf "%s(%s)" b.Benchmark.ts_name l
            | None -> b.Benchmark.ts_name
          in
          Table.add_row t
            ([
               b.Benchmark.name;
               section;
               Method.name row.Consistency.method_used;
               string_of_int row.Consistency.n_invocations;
             ]
            @ cells))
        rows)
    (Registry.integer @ Registry.floating_point);
  Table.print t;
  note "(Invocation counts are the paper's scaled by each benchmark's `scale' field.)"

(* ================================================================== *)
(* Figure 7: the tuning grid                                           *)
(* ================================================================== *)

type grid_cell = {
  g_bench : Benchmark.t;
  g_machine : Machine.t;
  g_method : Method.t;
  g_cell : Report.cell;
}

let fig7_grid : grid_cell list Lazy.t =
  lazy
    (List.concat_map
       (fun (b : Benchmark.t) ->
         List.concat_map
           (fun machine ->
             let methods = Report.figure7_methods b machine ~seed:3 in
             List.map
               (fun m ->
                 let cell = Report.figure7_cell ~method_:m b machine in
                 { g_bench = b; g_machine = machine; g_method = m; g_cell = cell })
               methods)
           machines)
       Registry.figure7)

let fig7ab () =
  heading "Figure 7 (a)/(b): % performance improvement over -O3";
  note "Left value: tuned with the train data set; right: tuned with ref.";
  note "All improvements are measured on the ref data set, whole-program (Amdahl).";
  note "Paper shape: all applicable methods track WHL; AVG lags or degrades where";
  note "contexts drift (MGRID); ART on Pentium IV is the 178%% outlier driven by";
  note "-fno-strict-aliasing; Pentium IV gains exceed SPARC II gains throughout.";
  List.iter
    (fun machine ->
      let t =
        Table.create
          ~title:(Printf.sprintf "-- %s --" machine.Machine.name)
          ~header:[ "Benchmark"; "Method"; "Train %"; "Ref %" ]
          ()
      in
      List.iter
        (fun g ->
          if g.g_machine == machine then
            Table.add_row t
              [
                g.g_bench.Benchmark.name;
                Method.name g.g_method;
                Table.fmt_float g.g_cell.Report.improvement_train_pct;
                Table.fmt_float g.g_cell.Report.improvement_ref_pct;
              ])
        (Lazy.force fig7_grid);
      Table.print t)
    machines

let fig7cd () =
  heading "Figure 7 (c)/(d): tuning time normalized to the WHL approach";
  note "1.00 = the cost of rating the same number of versions with whole-program";
  note "runs.  Paper shape: most cells fall below 0.1 (a >10x reduction); using a";
  note "poorly matched method (e.g. CBR on MGRID's many contexts) costs more.";
  List.iter
    (fun machine ->
      let t =
        Table.create
          ~title:(Printf.sprintf "-- %s --" machine.Machine.name)
          ~header:[ "Benchmark"; "Method"; "Normalized time"; "Ratings"; "Passes" ]
          ()
      in
      List.iter
        (fun g ->
          if g.g_machine == machine then
            Table.add_row t
              [
                g.g_bench.Benchmark.name;
                Method.name g.g_method;
                Table.fmt_float ~decimals:3 g.g_cell.Report.normalized_tuning_time;
                string_of_int g.g_cell.Report.result.Driver.search_stats.Search.ratings;
                string_of_int g.g_cell.Report.result.Driver.passes;
              ])
        (Lazy.force fig7_grid);
      Table.print t)
    machines

let summary () =
  heading "Headline summary (paper: up to 178% improvement, 26% average;";
  note "tuning time reduced by up to 96%%, 80%% on average)";
  (* use the PEAK-chosen method per benchmark/machine *)
  let chosen =
    List.filter
      (fun g ->
        let advice = g.g_cell.Report.result.Driver.advice in
        g.g_method = advice.Consultant.chosen)
      (Lazy.force fig7_grid)
  in
  let improvements = List.map (fun g -> g.g_cell.Report.improvement_train_pct) chosen in
  let reductions =
    List.map (fun g -> (1.0 -. g.g_cell.Report.normalized_tuning_time) *. 100.0) chosen
  in
  let arr = Array.of_list in
  note "Measured: up to %.0f%% improvement (%.0f%% on average over PEAK-chosen cells);"
    (Array.fold_left Float.max neg_infinity (arr improvements))
    (Stats.mean (arr improvements));
  note "tuning time reduced by up to %.0f%% (%.0f%% on average)."
    (Array.fold_left Float.max neg_infinity (arr reductions))
    (Stats.mean (arr reductions))

(* ================================================================== *)
(* Ablations                                                           *)
(* ================================================================== *)

(* A1: basic vs improved RBR.  Rating an identical version pair should
   give exactly 1.0; the basic method's fixed order and cold cache bias
   the ratio away from parity. *)
let ablation_rbr () =
  heading "Ablation A1: basic vs improved RBR (Section 2.4.2)";
  note "Rating the -O3 version against itself under heavy cache interference";
  note "(a competing process pollutes the cache on most invocations): ideal";
  note "relative time = 1.0 exactly.  Basic RBR times the base version first,";
  note "so the base pays the cold cache and the experimental version looks";
  note "systematically faster; the improved method's preconditioning run and";
  note "order alternation cancel the effect.";
  let t =
    Table.create ~header:[ "Benchmark"; "Variant"; "mean ratio"; "|bias| x100"; "stddev x100" ] ()
  in
  List.iter
    (fun name ->
      let b = bench name in
      let tsec = Tsection.make b.Benchmark.ts in
      let trace = b.Benchmark.trace Trace.Train ~seed:7 in
      List.iter
        (fun (label, improved) ->
          let runner =
            Runner.create ~seed:7 ~context_switch_rate:0.6 tsec trace Machine.pentium4
          in
          let version = Version.compile Machine.pentium4 tsec.Tsection.features Optconfig.o3 in
          let ratios =
            Array.init 400 (fun _ ->
                let tb, te = Runner.step_pair ~improved runner ~base:version ~experimental:version in
                te /. tb)
          in
          let kept = Stats.drop_outliers ratios in
          let mean = Stats.mean kept in
          Table.add_row t
            [
              name;
              label;
              Table.fmt_float ~decimals:4 mean;
              Table.fmt_float ~decimals:2 (abs_float (mean -. 1.0) *. 100.0);
              Table.fmt_float ~decimals:2 (Stats.stddev kept *. 100.0);
            ])
        [ ("basic", false); ("improved", true) ])
    [ "EQUAKE"; "GZIP"; "ART" ];
  Table.print t;
  note "Expected: basic RBR's bias is catastrophic where the working set fits the";
  note "cache and is evicted between invocations (GZIP, ART) — the outlier filter";
  note "cannot reject a perturbation most samples share.  EQUAKE's arrays exceed";
  note "the cache, so both executions run cold and neither variant is biased:";
  note "preconditioning only matters for cache-resident working sets."

(* A2: outlier elimination on/off. *)
let ablation_outlier () =
  heading "Ablation A2: measurement-outlier elimination (Section 3)";
  let b = bench "SWIM" in
  let tsec = Tsection.make b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:9 in
  let t = Table.create ~header:[ "Outlier filter"; "rating stddev x100"; "max |error| x100" ] () in
  List.iter
    (fun (label, k) ->
      let runner = Runner.create ~seed:9 tsec trace Machine.pentium4 in
      let version = Version.compile Machine.pentium4 tsec.Tsection.features Optconfig.o3 in
      let params =
        { Rating.window = 20; rel_threshold = infinity; max_invocations = 4000; outlier_k = k }
      in
      let evals =
        Array.init 30 (fun _ ->
            (Cbr.rate ~params runner ~sources:[] ~target:[||] version).Rating.eval)
      in
      let vbar = Stats.mean evals in
      let errors = Array.map (fun v -> ((v /. vbar) -. 1.0) *. 100.0) evals in
      Table.add_row t
        [
          label;
          Table.fmt_float ~decimals:2 (Stats.stddev errors);
          Table.fmt_float ~decimals:2
            (Array.fold_left (fun acc x -> Float.max acc (abs_float x)) 0.0 errors);
        ])
    [ ("on (k=3.5)", 3.5); ("off (k=1e9)", 1e9) ];
  Table.print t;
  note "Expected: without the filter, interrupt-like spikes inflate the rating";
  note "spread and occasionally produce large one-off errors."

(* A3: search algorithms under the same rating oracle. *)
let ablation_search () =
  heading "Ablation A3: search algorithms (IE [11] vs the related-work alternatives)";
  let b = bench "MGRID" in
  let t =
    Table.create ~header:[ "Search"; "Improvement %"; "Ratings"; "Tuning s" ] ()
  in
  let on_ref = Driver.pass_summary b Machine.pentium4 Trace.Ref in
  List.iter
    (fun (label, algo) ->
      let r = Driver.tune ~strategy:algo ~method_:Method.Mbr b Machine.pentium4 Trace.Train in
      let imp = Driver.summary_improvement_pct on_ref ~best:r.Driver.best_config in
      Table.add_row t
        [
          label;
          Table.fmt_float imp;
          string_of_int r.Driver.search_stats.Search.ratings;
          Table.fmt_float ~decimals:2 r.Driver.tuning_seconds;
        ])
    [
      ("Iterative Elimination", Strategy.Ie);
      ("Batch Elimination", Strategy.Be);
      ("Combined Elimination", Strategy.Ce);
      ("Random (100 samples)", Strategy.Random 100);
      ("Fractional factorial [2]", Strategy.Ff);
      ("OSE presets [13]", Strategy.Ose);
    ];
  Table.print t;
  note "Expected: under MBR on MGRID the greedy eliminations stall at or just";
  note "below -O3 while the sampling searches (random, fractional factorial,";
  note "OSE) land several percent above it; BE is cheapest but blind to flag";
  note "interactions (see the unit-test interaction trap)."

(* A5: the symbolic-range save/restore optimization (Section 2.4.2). *)
let ablation_ranges () =
  heading "Ablation A5: symbolic range analysis for RBR save/restore (Section 2.4.2)";
  note "The paper reduces RBR overhead by shrinking Modified_Input with symbolic";
  note "range analysis [Blume & Eigenmann].  Measured: the save/restore payload";
  note "and the RBR tuning cost with the analysis on vs off (whole-array copies).";
  let t =
    Table.create
      ~header:
        [ "Benchmark"; "static bytes"; "dynamic bytes"; "RBR cycles/invoc (off)"; "(on)"; "saved" ]
      ()
  in
  List.iter
    (fun name ->
      let b = bench name in
      let tsec = Tsection.make b.Benchmark.ts in
      let trace = b.Benchmark.trace Trace.Train ~seed:7 in
      let env = Peak_ir.Interp.make_env b.Benchmark.ts in
      trace.Trace.init env;
      trace.Trace.setup 0 env;
      let static = Tsection.save_restore_bytes tsec in
      let dynamic = Snapshot.measure_bytes tsec env in
      let cost use_ranges =
        let runner = Runner.create ~seed:7 tsec trace Machine.sparc2 in
        let version = Version.compile Machine.sparc2 tsec.Tsection.features Optconfig.o3 in
        let n = 200 in
        for _ = 1 to n do
          ignore (Runner.step_pair ~use_ranges runner ~base:version ~experimental:version)
        done;
        Runner.tuning_cycles runner /. float_of_int n
      in
      let off = cost false and on = cost true in
      Table.add_row t
        [
          name;
          string_of_int static;
          string_of_int dynamic;
          Printf.sprintf "%.0f" off;
          Printf.sprintf "%.0f" on;
          Table.fmt_percent ((off -. on) /. off);
        ])
    [ "ART"; "APPLU"; "SWIM" ];
  Table.print t;
  note "Expected: sections whose stores are loop-bounded (ART's y[0..numf1s))";
  note "copy only the live span; sections that overwrite whole arrays every";
  note "invocation (APPLU, SWIM stencils) see little change."

(* A6: batched re-execution (Section 2.4.2's batching optimization). *)
let ablation_batch () =
  heading "Ablation A6: batching experimental runs under RBR (Section 2.4.2)";
  note "Rating one IE iteration's worth of candidates (all 38 single-flag";
  note "removals) against -O3: sequential pairs vs one batch per invocation.";
  let t =
    Table.create
      ~header:[ "Benchmark"; "Mode"; "Tuning Mcycles"; "Invocations"; "Agreeing verdicts" ]
      ()
  in
  List.iter
    (fun name ->
      let b = bench name in
      let tsec = Tsection.make b.Benchmark.ts in
      let trace = b.Benchmark.trace Trace.Train ~seed:5 in
      let base_cfg = Optconfig.o3 in
      let candidates =
        Array.to_list Flags.all |> List.map (fun f -> Optconfig.disable base_cfg f)
      in
      let params = { Rating.default_params with window = 20; max_invocations = 2000 } in
      let compile machine c = Version.compile machine tsec.Tsection.features c in
      let machine = Machine.pentium4 in
      let base = compile machine base_cfg in
      let versions = List.map (compile machine) candidates in
      let sequential () =
        let runner = Runner.create ~seed:5 tsec trace machine in
        let evals =
          List.map (fun v -> (Rbr.rate ~params runner ~base v).Rating.eval) versions
        in
        (Runner.tuning_cycles runner, Runner.invocations_consumed runner, evals)
      in
      let batched () =
        let runner = Runner.create ~seed:5 tsec trace machine in
        let ratings = Rbr.rate_many ~params runner ~base versions in
        ( Runner.tuning_cycles runner,
          Runner.invocations_consumed runner,
          List.map (fun r -> r.Rating.eval) ratings )
      in
      let seq_cycles, seq_inv, seq_evals = sequential () in
      let bat_cycles, bat_inv, bat_evals = batched () in
      let agree =
        List.fold_left2
          (fun acc a b -> if (a < 0.995) = (b < 0.995) then acc + 1 else acc)
          0 seq_evals bat_evals
      in
      Table.add_row t
        [
          name; "sequential";
          Printf.sprintf "%.1f" (seq_cycles /. 1e6);
          string_of_int seq_inv;
          "-";
        ];
      Table.add_row t
        [
          name; "batched";
          Printf.sprintf "%.1f" (bat_cycles /. 1e6);
          string_of_int bat_inv;
          Printf.sprintf "%d/38" agree;
        ])
    [ "GZIP"; "TWOLF" ];
  Table.print t;
  note "Expected: batching cuts both the invocations consumed (one invocation";
  note "rates 38 versions) and the total cycles (one save + precondition per";
  note "batch), while the accept/reject verdicts agree for nearly every flag."

(* A4: the consultant's method choice and fallback. *)
let ablation_consultant () =
  heading "Ablation A4: Rating Approach Consultant choices (Table 1 method column)";
  let t =
    Table.create
      ~header:[ "Benchmark"; "TS"; "Paper"; "Chosen"; "#contexts"; "#components"; "Why others fail" ]
      ()
  in
  List.iter
    (fun (b : Benchmark.t) ->
      let tsec = Tsection.make b.Benchmark.ts in
      let trace = b.Benchmark.trace Trace.Train ~seed:23 in
      let profile = Profile.run tsec trace Machine.sparc2 in
      let advice = Consultant.advise tsec profile in
      Table.add_row t
        [
          b.Benchmark.name;
          b.Benchmark.ts_name;
          b.Benchmark.paper_method;
          Method.name advice.Consultant.chosen;
          (match advice.Consultant.n_contexts with Some n -> string_of_int n | None -> "-");
          string_of_int advice.Consultant.n_components;
          String.concat "; " advice.Consultant.reasons;
        ])
    Registry.all;
  Table.print t

(* The Section 5.2 discussion: which flags hurt where, and why.  RIP =
   relative improvement percentage of removing the flag from -O3
   (positive: the flag was harmful), measured noise-free. *)
let flag_effects () =
  heading "Per-flag effects (Section 5.2's discussion, incl. the ART strict-aliasing story)";
  note "RIP%% = whole-program improvement from removing the flag from -O3";
  note "(noise-free evaluation; positive means the flag hurts).  Only flags with";
  note "|RIP| >= 0.5%% on some cell are shown.";
  let cells =
    List.concat_map
      (fun (b : Benchmark.t) -> List.map (fun m -> (b, m)) machines)
      Registry.figure7
  in
  let summaries = List.map (fun (b, m) -> Driver.pass_summary b m Trace.Train) cells in
  let rip summary f =
    Driver.summary_improvement_pct summary ~best:(Optconfig.disable Optconfig.o3 f)
  in
  let rows =
    Array.to_list Flags.all
    |> List.filter_map (fun f ->
           let values = List.map (fun s -> rip s f) summaries in
           if List.exists (fun v -> abs_float v >= 0.5) values then Some (f, values) else None)
  in
  let header =
    "Flag"
    :: List.map
         (fun ((b : Benchmark.t), (m : Machine.t)) ->
           Printf.sprintf "%s/%s" b.Benchmark.name
             (if m == Machine.sparc2 then "SII" else "P4"))
         cells
  in
  let t = Table.create ~header () in
  List.iter
    (fun ((f : Flags.t), values) ->
      Table.add_row t (Flags.gcc_name f :: List.map (Table.fmt_float ~decimals:1) values))
    rows;
  Table.print t;
  note "Expected: -fstrict-aliasing shows a triple-digit RIP for ART on the";
  note "Pentium IV only (the register-pressure/spill mechanism) while helping or";
  note "neutral elsewhere; scheduling flags hurt mildly on the 8-register Pentium";
  note "IV and help on SPARC II; most flags sit near zero, which is why searching";
  note "matters."

(* A7: local vs remote dynamic compilation (Figure 6). *)
let ablation_compile () =
  heading "Ablation A7: local vs remote dynamic compilation (Figure 6)";
  note "The Remote Optimizer compiles experimental versions while the tuned";
  note "application keeps running; a local compiler blocks it.  Same IE search,";
  note "2 ms (simulated) per version compile, prefetched per IE iteration.";
  let t =
    Table.create
      ~header:[ "Benchmark"; "Compiler"; "Tuning s"; "vs free compiles" ]
      ()
  in
  List.iter
    (fun name ->
      let b = bench name in
      let free = Driver.tune ~method_:Method.Cbr b Machine.pentium4 Trace.Train in
      List.iter
        (fun (label, mode) ->
          let r =
            Driver.tune ~compile:(mode, 0.002) ~method_:Method.Cbr b Machine.pentium4
              Trace.Train
          in
          Table.add_row t
            [
              name;
              label;
              Table.fmt_float ~decimals:2 r.Driver.tuning_seconds;
              Printf.sprintf "+%.0f%%"
                ((r.Driver.tuning_seconds /. free.Driver.tuning_seconds -. 1.0) *. 100.0);
            ])
        [ ("local (blocking)", Optimizer.Local); ("remote (overlapped)", Optimizer.Remote) ])
    [ "SWIM"; "EQUAKE" ];
  Table.print t;
  note "Expected: local compilation inflates tuning time by roughly";
  note "(#versions x compile time); the remote optimizer hides most of it";
  note "behind the rating executions.";
  ignore ()

(* The online/adaptive scenario of Section 6 under drift: the full
   (benchmark x drift pattern) matrix, production runs with in-place
   version swapping and staleness-triggered re-tuning, vs static -O3
   and the drift-aware per-invocation oracle.  Gated by per-cell SLOs;
   the report is BENCH_adaptive.json. *)
let adaptive_report_file = "BENCH_adaptive.json"

(* Regime B's scalar warp per benchmark.  Only bounds-safe axes: scale
   factors <= 1 for loop bounds backed by fixed-size arrays (SWIM's n,
   EQUAKE's rows, ...).  ART pins its window offset to 0 and quadruples
   the F1 walk (1600 < f1_size, still in bounds) — the one warp that
   makes regime B much dearer, so its cells exercise the staleness
   detector end to end. *)
let adaptive_warp = function
  | "ART" -> "warp=off*0,warp=numf1s*4"
  | "CRAFTY" -> "warp=depth*0.5"
  | "GZIP" -> "warp=chain_length*0.5"
  | "MCF" -> "warp=group_size*0.6"
  | "TWOLF" -> "warp=nterms*0.6"
  | "MESA" -> "warp=wrap_repeat*0"
  | "VORTEX" -> "warp=status*0"
  | "SWIM" | "APPLU" | "MGRID" -> "warp=n*0.75"
  | "EQUAKE" -> "warp=rows*0.8"
  | "WUPWISE" -> "warp=k*0.5"
  | "APSI" -> "warp=l1*0.5"
  | "BZIP2" -> "warp=budget*0.5"
  | _ -> ""

let adaptive_patterns invocations =
  [
    ("step", Printf.sprintf "step=%d" (2 * invocations / 5));
    ("ramp", Printf.sprintf "ramp=%d+%d" (invocations / 3) (invocations / 4));
    ("periodic", Printf.sprintf "periodic=%d" (invocations / 4));
    ("burst", Printf.sprintf "burst=%d+%d" (invocations / 3) (invocations / 3));
  ]

let adaptive_cell ~seed ~machine ~candidates (b : Benchmark.t) ~spec ~invocations =
  let tsec = Tsection.make b.Benchmark.ts in
  let base = b.Benchmark.trace Trace.Train ~seed in
  let drift =
    match Drift.of_string spec with Ok d -> d | Error e -> failwith ("bench adaptive: " ^ e)
  in
  let trace = Drift.apply ~length:invocations drift base in
  let a = Adaptive.create ~seed tsec trace machine ~candidates in
  (Adaptive.run a ~invocations, drift)

let adaptive () =
  heading "Online adaptive tuning under drift (Section 6's scenario, ADAPT mechanism)";
  note "No offline phase: every invocation is production work.  Each cell streams";
  note "a drifting workload (regime shift per the pattern column) through the";
  note "engine: per-context best/experimental versions, Welch-gated swaps, and a";
  note "staleness detector that re-opens exploration when the incumbent's recent";
  note "window regresses against its rating-time baseline.";
  let machine = Machine.pentium4 and seed = 3 in
  let flag n = Option.get (Flags.by_name n) in
  let candidates =
    [
      Optconfig.disable Optconfig.o3 (flag "schedule-insns");
      Optconfig.disable Optconfig.o3 (flag "force-mem");
    ]
  in
  (* SLOs: total within this factor of the drift-aware oracle, and a
     bounded re-adaptation lag after a detected shift *)
  let slo_oracle_factor = 1.25 in
  let slo_readapt = 250.0 in
  let t =
    Table.create
      ~header:
        [
          "Benchmark"; "Pattern"; "invoc."; "vs -O3"; "oracle gap"; "stale"; "readapt";
          "mean lag"; "p99"; "SLO";
        ]
      ()
  in
  let total_invocations = ref 0 in
  let cells =
    List.concat_map
      (fun (b : Benchmark.t) ->
        let name = b.Benchmark.name in
        let heavy = (b.Benchmark.trace Trace.Train ~seed).Trace.class_of = None in
        let invocations = if heavy then 2_500 else 40_000 in
        List.map
          (fun (pattern, spec_pattern) ->
            let spec =
              String.concat ","
                (List.filter
                   (fun s -> s <> "")
                   [ Printf.sprintf "seed=%d" seed; spec_pattern; adaptive_warp name ])
            in
            let s, _ = adaptive_cell ~seed ~machine ~candidates b ~spec ~invocations in
            total_invocations := !total_invocations + invocations;
            let oracle_gap = (s.Adaptive.total_cycles /. s.Adaptive.oracle_cycles) -. 1.0 in
            let lag = s.Adaptive.mean_time_to_readapt in
            let ok_oracle =
              s.Adaptive.total_cycles <= slo_oracle_factor *. s.Adaptive.oracle_cycles
            in
            let ok_lag = s.Adaptive.readapts = 0 || lag <= slo_readapt in
            Gate.check ok_oracle "%s/%s: total %.0f exceeds %.2fx oracle %.0f" name pattern
              s.Adaptive.total_cycles slo_oracle_factor s.Adaptive.oracle_cycles;
            Gate.check ok_lag "%s/%s: mean time-to-readapt %.0f exceeds %.0f" name pattern lag
              slo_readapt;
            Table.add_row t
              [
                name;
                pattern;
                string_of_int invocations;
                Table.fmt_percent ((s.Adaptive.o3_cycles /. s.Adaptive.total_cycles) -. 1.0);
                Table.fmt_percent oracle_gap;
                string_of_int s.Adaptive.stale_detections;
                string_of_int s.Adaptive.readapts;
                (if s.Adaptive.readapts = 0 then "-" else Printf.sprintf "%.0f" lag);
                Printf.sprintf "%.0f" s.Adaptive.p99_invocation_cycles;
                (if ok_oracle && ok_lag then "ok" else "BREACH");
              ];
            (name, pattern, invocations, s))
          (adaptive_patterns invocations))
      Registry.all
  in
  Table.print t;
  note "oracle gap = total over the drift-aware per-invocation oracle; mean lag =";
  note "invocations from a stale verdict to exploration draining (re-tuned).";
  note "%d cells, %d invocations streamed in total." (List.length cells) !total_invocations;
  Gate.check (!total_invocations >= 1_000_000)
    "matrix streamed %d invocations; the experiment promises >= 1M" !total_invocations;
  let mean_lag =
    let lags =
      List.filter_map
        (fun (_, _, _, (s : Adaptive.stats)) ->
          if s.Adaptive.readapts = 0 then None else Some s.Adaptive.mean_time_to_readapt)
        cells
    in
    match lags with
    | [] -> nan
    | _ -> List.fold_left ( +. ) 0.0 lags /. float_of_int (List.length lags)
  in
  (let open Peak_store in
   let num x = if Float.is_nan x then Json.Null else Json.Float x in
   let json =
     Json.Obj
       [
         ("seed", Json.Int seed);
         ("machine", Json.String "pentium4");
         ("slo_oracle_factor", Json.Float slo_oracle_factor);
         ("slo_readapt_invocations", Json.Float slo_readapt);
         ("total_invocations", Json.Int !total_invocations);
         ("mean_time_to_readapt", num mean_lag);
         ( "cells",
           Json.List
             (List.map
                (fun (name, pattern, invocations, (s : Adaptive.stats)) ->
                  Json.Obj
                    [
                      ("benchmark", Json.String name);
                      ("pattern", Json.String pattern);
                      ("invocations", Json.Int invocations);
                      ("adaptive_cycles", Json.Float s.Adaptive.total_cycles);
                      ("o3_cycles", Json.Float s.Adaptive.o3_cycles);
                      ("oracle_cycles", Json.Float s.Adaptive.oracle_cycles);
                      ("p99_invocation_cycles", num s.Adaptive.p99_invocation_cycles);
                      ("swaps", Json.Int s.Adaptive.swaps);
                      ("contexts", Json.Int s.Adaptive.contexts_seen);
                      ("stale_detections", Json.Int s.Adaptive.stale_detections);
                      ("readapts", Json.Int s.Adaptive.readapts);
                      ("mean_time_to_readapt", num s.Adaptive.mean_time_to_readapt);
                    ])
                cells) );
         ("pass", Json.Bool (Gate.passed ()));
       ]
   in
   Gate.write adaptive_report_file json)

(* ================================================================== *)
(* Persistent store: journaling overhead and replay speedup            *)
(* ================================================================== *)

let store_exp () =
  heading "Persistent tuning store: journaling overhead and replay speedup";
  note "Same session three ways: no store, a cold";
  note "store (journaling every rating), and a replay (resuming the completed";
  note "journal, so every rating is served from the cache).";
  let b = bench "ART" and machine = Machine.pentium4 in
  let method_ = Method.Rbr and strategy = Strategy.Be in
  with_temp_dir "peak-bench-store" @@ fun root ->
  let dir = Filename.concat root "store" in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let t_plain, plain = time (fun () -> Driver.tune ~strategy ~method_ b machine Trace.Train) in
  let meta = Driver.session_meta ~method_ ~strategy b machine Trace.Train in
  let tune_stored () =
    match Peak_store.Session.open_ ~dir ~meta () with
    | Error e -> failwith e
    | Ok s ->
        Fun.protect
          ~finally:(fun () -> Peak_store.Session.close s)
          (fun () ->
            ( Peak_store.Session.loaded_events s,
              Driver.tune ~strategy ~method_ ~store:s b machine Trace.Train ))
  in
  let t_cold, (_, cold) = time tune_stored in
  let t_replay, (replayed, warm) = time tune_stored in
  let id = meta.Peak_store.Codec.m_id in
  let journal =
    Filename.concat (Filename.concat (Filename.concat dir "sessions") id) "journal.jsonl"
  in
  let jbytes = (Unix.stat journal).Unix.st_size in
  let t = Table.create ~header:[ "Mode"; "Wall s"; "vs no store"; "Identical result" ] () in
  Table.add_row t [ "no store"; Printf.sprintf "%.3f" t_plain; "1.00x"; "-" ];
  Table.add_row t
    [
      "cold store";
      Printf.sprintf "%.3f" t_cold;
      Printf.sprintf "%.2fx" (t_cold /. t_plain);
      yes_no (identical "cold store result differs from no store" [ plain ] [ cold ]);
    ];
  Table.add_row t
    [
      "replay (resume)";
      Printf.sprintf "%.3f" t_replay;
      Printf.sprintf "%.2fx" (t_replay /. t_plain);
      yes_no (identical "replayed result differs from no store" [ plain ] [ warm ]);
    ];
  Table.print t;
  note "Journal: %d rating events, %d bytes (%.0f bytes/event)." replayed jbytes
    (float_of_int jbytes /. float_of_int (max 1 replayed));
  note "Expected: journaling adds low single-digit percent overhead (one JSON";
  note "line + batched fsync per rating); the replay run skips every simulated";
  note "execution and completes in milliseconds while reporting the same best";
  note "configuration, search stats and tuning-cycle ledger."

(* ================================================================== *)
(* Fault injection: tuning through crashing / miscompiled configs      *)
(* ================================================================== *)

let faults_exp () =
  heading "Fault tolerance: tuning under injected crashes, miscompilations and noise";
  note "The same sessions with no faults, the acceptance mix (5%% of configs";
  note "crash, 2%% miscompute), and a harsher plan that adds hangs, transient";
  note "failures and noise bursts.  Quarantined configs are validated against a";
  note "base-output oracle and rated +inf, so the search routes around them;";
  note "transient failures are retried on fresh attempt-keyed runners.";
  let machine = Machine.pentium4 in
  let open Peak_sim in
  let plans =
    [
      ("none", None);
      ("crash5+wrong2", Some Fault.default_spec);
      ( "harsh",
        Some
          {
            Fault.default_spec with
            Fault.hang = 0.01;
            transient = 0.02;
            burst = 0.1;
          } );
    ]
  in
  let t =
    Table.create
      ~header:
        [ "Benchmark"; "Fault plan"; "Quar."; "Retries"; "Invocations"; "Tuning s"; "Best = clean" ]
      ()
  in
  List.iter
    (fun name ->
      let b = bench name in
      let tune faults = Driver.tune ?faults ~strategy:Strategy.Be b machine Trace.Train in
      let clean = tune None in
      List.iter
        (fun (label, spec) ->
          let faults = Option.map (fun spec -> Fault.create ~spec ~seed:3 ()) spec in
          let r = tune faults in
          Table.add_row t
            [
              b.Benchmark.name;
              label;
              string_of_int (List.length r.Driver.quarantined);
              string_of_int r.Driver.fault_retries;
              string_of_int r.Driver.invocations;
              Table.fmt_float ~decimals:2 r.Driver.tuning_seconds;
              (if Optconfig.equal r.Driver.best_config clean.Driver.best_config then "yes"
               else "no");
            ])
        plans)
    [ "SWIM"; "ART" ];
  Table.print t;
  note "Expected: fault runs complete on every workload.  The oracle check adds";
  note "one validation invocation per candidate and retries re-charge doomed";
  note "attempts, while a crashing config aborts its rating window early — so";
  note "the invocation totals shift both ways; hang budgets make the harsh";
  note "plan's tuning time clearly higher.  The winner may legitimately differ";
  note "from the clean run when a would-be winner is itself condemned."

(* ================================================================== *)
(* Tracing: overhead of the observability layer                        *)
(* ================================================================== *)

let tracing_exp () =
  heading "Tracing overhead: the same tuning session untraced and traced";
  note "One pool-backed BE session on ART, three ways: tracer off (0 events),";
  note "a 1k-event ring and a 100k-event ring.  The tracer must never change";
  note "the result, only the wall clock.";
  let b = bench "ART" and machine = Machine.pentium4 in
  let tune () =
    Pool.run ~domains:2 (fun pool ->
        Driver.tune ~strategy:Strategy.Be ~pool b machine Trace.Train)
  in
  let timed_tune capacity =
    (match capacity with 0 -> () | c -> Peak_obs.install ~capacity:c ());
    Fun.protect ~finally:Peak_obs.uninstall (fun () ->
        let t0 = Unix.gettimeofday () in
        let r = tune () in
        let wall = Unix.gettimeofday () -. t0 in
        let buffered, dropped =
          match Peak_obs.snapshot () with
          | Some s -> (s.Peak_obs.events, s.Peak_obs.dropped)
          | None -> (0, 0)
        in
        (wall, buffered, dropped, r))
  in
  (* warm-up evens out lazy initialization before the timed runs *)
  ignore (tune ());
  let t_off, _, _, r_off = timed_tune 0 in
  let t =
    Table.create
      ~header:[ "Ring capacity"; "Wall s"; "vs off"; "Events kept"; "Dropped"; "Identical result" ]
      ()
  in
  Table.add_row t [ "off"; Printf.sprintf "%.3f" t_off; "1.00x"; "-"; "-"; "-" ];
  List.iter
    (fun capacity ->
      let wall, buffered, dropped, r = timed_tune capacity in
      let same =
        identical
          (Printf.sprintf "%d-event ring result differs from tracer off" capacity)
          [ r_off ] [ r ]
      in
      Table.add_row t
        [
          string_of_int capacity;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.2fx" (wall /. t_off);
          string_of_int buffered;
          string_of_int dropped;
          yes_no same;
        ])
    [ 1_000; 100_000 ];
  Table.print t;
  (* per-call costs of the primitives the hot paths use *)
  let open Bechamel in
  let micro installed =
    let name suffix = if installed then suffix ^ " (on)" else suffix ^ " (off)" in
    [
      Test.make ~name:(name "count") (Staged.stage (fun () -> Peak_obs.count "bench.counter"));
      Test.make ~name:(name "instant")
        (Staged.stage (fun () -> Peak_obs.instant ~cat:"bench" "bench.instant"));
      Test.make ~name:(name "span begin+end")
        (Staged.stage (fun () -> Peak_obs.end_span (Peak_obs.begin_span ~cat:"bench" "b")));
      Test.make ~name:(name "timed")
        (Staged.stage (fun () -> Peak_obs.timed "bench.timed" (fun () -> ())));
    ]
  in
  let run_micro installed =
    if installed then Peak_obs.install ~capacity:100_000 ();
    Fun.protect ~finally:Peak_obs.uninstall (fun () ->
        let grouped = Test.make_grouped ~name:"obs" (micro installed) in
        let instance = Toolkit.Instance.monotonic_clock in
        let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.2) () in
        let raw = Benchmark.all cfg [ instance ] grouped in
        let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
        Analyze.all ols instance raw)
  in
  let rows results =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Printf.sprintf "%.1f" est
          | Some [] | None -> "n/a"
        in
        (name, ns) :: acc)
      results []
  in
  let t2 = Table.create ~header:[ "Primitive"; "ns/call (host)" ] () in
  List.iter
    (fun (name, ns) -> Table.add_row t2 [ name; ns ])
    (List.sort compare (rows (run_micro false) @ rows (run_micro true)));
  Table.print t2;
  note "Expected: the off-path costs a branch and nothing else (single-digit ns,";
  note "no allocation); installed primitives pay a mutex + ring write; end-to-end";
  note "overhead stays in the low single-digit percent either ring size, and the";
  note "tuning result is bit-identical in every mode."

(* ================================================================== *)
(* Micro-benchmarks (Bechamel)                                         *)
(* ================================================================== *)

let micro () =
  heading "Micro-benchmarks: per-invocation rating overheads (Section 3's ordering)";
  note "Wall-clock cost of the harness primitives (Bechamel, monotonic clock).";
  let b = bench "TWOLF" in
  let tsec = Tsection.make b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:3 in
  let open Bechamel in
  let machine = Machine.sparc2 in
  let runner = Runner.create ~seed:3 tsec trace machine in
  let version = Version.compile machine tsec.Tsection.features Optconfig.o3 in
  let sources = [ Peak_ir.Expr.Scalar "nterms" ] in
  let cache = Cache.create ~size_bytes:32768 ~line_bytes:64 ~assoc:4 in
  let counts = [| [| 1.0; 1.0 |]; [| 2.0; 1.0 |]; [| 3.0; 1.0 |]; [| 5.0; 1.0 |] |] in
  let times = [| 11.0; 21.0; 31.0; 51.0 |] in
  let tests =
    [
      Test.make ~name:"step (plain / AVG)" (Staged.stage (fun () -> ignore (Runner.step runner version)));
      Test.make ~name:"step+context (CBR)"
        (Staged.stage (fun () -> ignore (Runner.step ~context:sources runner version)));
      Test.make ~name:"step_pair (RBR improved)"
        (Staged.stage (fun () ->
             ignore (Runner.step_pair runner ~base:version ~experimental:version)));
      Test.make ~name:"step_pair (RBR basic)"
        (Staged.stage (fun () ->
             ignore (Runner.step_pair ~improved:false runner ~base:version ~experimental:version)));
      Test.make ~name:"MBR regression (4 obs x 2 comps)"
        (Staged.stage (fun () -> ignore (Regression.fit ~counts ~times)));
      Test.make ~name:"cache access" (Staged.stage (fun () -> ignore (Cache.access cache 4096)));
      Test.make ~name:"compile version"
        (Staged.stage (fun () ->
             ignore (Version.compile machine tsec.Tsection.features Optconfig.o3)));
    ]
  in
  let grouped = Test.make_grouped ~name:"peak" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Printf.sprintf "%.0f" est
          | Some [] | None -> "n/a"
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let t = Table.create ~header:[ "Primitive"; "ns/run (host)" ] () in
  List.iter (fun (name, ns) -> Table.add_row t [ name; ns ]) rows;
  Table.print t;
  (* The paper's Section 3 ordering concerns the overhead charged on the
     tuned machine, which is simulated: measure the per-invocation cycles
     each method's primitive adds to the tuning ledger. *)
  let sim_cycles f =
    let runner = Runner.create ~seed:5 tsec trace machine in
    let n = 300 in
    let before = Runner.tuning_cycles runner in
    for _ = 1 to n do
      f runner
    done;
    (Runner.tuning_cycles runner -. before) /. float_of_int n
  in
  let t2 = Table.create ~header:[ "Rating primitive"; "simulated cycles/invocation" ] () in
  List.iter
    (fun (name, f) -> Table.add_row t2 [ name; Printf.sprintf "%.0f" (sim_cycles f) ])
    [
      ("plain execution (AVG)", fun r -> ignore (Runner.step r version));
      ( "execution + context read (CBR)",
        fun r -> ignore (Runner.step ~context:sources r version) );
      ( "execution + counters (MBR)",
        fun r ->
          ignore (Runner.step r version);
          Runner.charge_overhead r
            (Mbr.counter_cost_per_entry
            *. float_of_int (Array.fold_left ( + ) 0 (Runner.counts r))) );
      ( "save/precondition/restore/2x run (RBR improved)",
        fun r -> ignore (Runner.step_pair r ~base:version ~experimental:version) );
      ( "save/restore/2x run (RBR basic)",
        fun r -> ignore (Runner.step_pair ~improved:false r ~base:version ~experimental:version)
      );
    ];
  Table.print t2;
  note "Expected ordering (paper Section 3): CBR ~ AVG < MBR < RBR, with improved";
  note "RBR the costliest (preconditioning execution plus an extra restore)."

(* ================================================================== *)
(* Parallel tuning: sequential vs. domain-pool wall time               *)
(* ================================================================== *)

let parallel () =
  heading "Parallel tuning: Driver.tune_suite wall time vs. domains";
  let benchmarks = Registry.figure7 in
  let machine = Machine.sparc2 in
  note "Tuning %s with IE on %s (train data set)."
    (String.concat ", " (List.map (fun b -> b.Benchmark.name) benchmarks))
    machine.Machine.name;
  note "Available cores: %d (speedup saturates at the core count)."
    (Domain.recommended_domain_count ());
  let time domains =
    let t0 = Unix.gettimeofday () in
    let results = Driver.tune_suite ~domains benchmarks machine Trace.Train in
    (Unix.gettimeofday () -. t0, results)
  in
  let t1, r1 = time 1 in
  let t =
    Table.create ~header:[ "Domains"; "Wall s"; "Speedup"; "Identical to -j 1" ] ()
  in
  Table.add_row t [ "1"; Printf.sprintf "%.2f" t1; "1.00x"; "-" ];
  List.iter
    (fun domains ->
      let tn, rn = time domains in
      Table.add_row t
        [
          string_of_int domains;
          Printf.sprintf "%.2f" tn;
          Printf.sprintf "%.2fx" (t1 /. tn);
          yes_no (identical (Printf.sprintf "-j %d suite differs from -j 1" domains) r1 rn);
        ])
    [ 2; 4 ];
  Table.print t;
  note "Each candidate rates on its own deterministically-seeded runner, so";
  note "best configuration, search stats and the tuning-cycle ledger are";
  note "bit-identical for every domain count."

(* ================================================================== *)
(* §3 fallback: what auto mode does when a method cannot converge       *)
(* ================================================================== *)

let fallback_exp () =
  heading "Method fallback: auto mode under a starved rating budget";
  note "A rating cap below the 40-sample convergence window makes every absolute";
  note "probe fail, so auto falls through the consultant's chain to RBR; at the";
  note "default cap the first choice converges and no fallback happens.";
  let machine = Machine.pentium4 in
  let starved = { Rating.default_params with Rating.max_invocations = 30 } in
  let t =
    Table.create
      ~header:[ "Benchmark"; "Cap"; "Attempts"; "Method"; "Probe ratings"; "Ratings"; "Tuning s" ]
      ()
  in
  let cells =
    List.concat_map
      (fun name ->
        let b = bench name in
        List.map
          (fun (label, rating_params) ->
            let r = Driver.tune ~rating_params b machine Trace.Train in
            (b, label, r))
          [ ("30", starved); ("20000", Rating.default_params) ])
      [ "ART"; "MGRID"; "APSI" ]
  in
  List.iter
    (fun ((b : Benchmark.t), label, (r : Driver.result)) ->
      let probes =
        List.fold_left
          (fun acc (a : Method.attempt) ->
            if a.Method.a_converged then acc else acc + a.Method.a_ratings)
          0 r.Driver.attempts
      in
      Table.add_row t
        [
          b.Benchmark.name;
          label;
          Method.chain_string r.Driver.attempts;
          Method.name r.Driver.method_used;
          string_of_int probes;
          string_of_int r.Driver.search_stats.Search.ratings;
          Table.fmt_float ~decimals:2 r.Driver.tuning_seconds;
        ])
    cells;
  Table.print t;
  (* machine-readable mirror of the table, incl. per-method attempt
     counts — the same numbers `peak-tune report` recomputes from a
     session store *)
  let open Peak_store in
  let cell_json ((b : Benchmark.t), label, (r : Driver.result)) =
    Json.Obj
      [
        ("benchmark", Json.String b.Benchmark.name);
        ("rating_cap", Json.String label);
        ("method", Json.String (Method.name r.Driver.method_used));
        ( "attempts",
          Json.List
            (List.map
               (fun (a : Method.attempt) ->
                 Json.Obj
                   [
                     ("method", Json.String (Method.name a.Method.a_method));
                     ("converged", Json.Bool a.Method.a_converged);
                     ("ratings", Json.Int a.Method.a_ratings);
                   ])
               r.Driver.attempts) );
        ("ratings", Json.Int r.Driver.search_stats.Search.ratings);
        ("tuning_seconds", Json.Float r.Driver.tuning_seconds);
      ]
  in
  note "JSON: %s" (Json.to_string (Json.Obj [ ("fallback", Json.List (List.map cell_json cells)) ]))

(* ================================================================== *)
(* Allocation budget: the zero-allocation hot-path contract            *)
(* ================================================================== *)

(* Amortized bytes allocated per call, after two warmup calls (the
   warmups grow every scratch buffer to steady-state capacity).
   Minimum of three measurements: background threads (the systhreads
   tick thread) add strictly positive noise to Gc.allocated_bytes, and
   the minimum discards it. *)
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

(* Amortized bytes per invocation of one whole pass: [pass ()] returns
   the pass to meter and its invocation count, with whatever must not be
   metered (building a trace) done before it returns.  Minimum of three
   passes, as above.  The pass starts and ends on a minor collection:
   OCaml 5.1's [Gc.allocated_bytes] counts the current minor cycle's
   words at an eighth, so a window is exact only between collections. *)
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

(* The "before" column of BENCH_alloc.json: the first three probes
   measured on this harness before the slot compiler / scratch-buffer
   refactor (string-keyed environment, allocating summarize); for
   runner_replay, the same replayed step while the memory system was
   keyed by base name (an access record list per charge, a residency
   list refolded per touch); for version_compile, the same compile
   while the flag model still looked every flag up by name; for
   profile_step and summary_step, the same passes while every
   invocation copied its counters, looked its context names up by
   string and drew from a boxed generator state. *)
let alloc_before =
  [
    ("interp_step", 61907.7);
    ("rating_window", 105913.0);
    ("runner_step", 271011.1);
    ("runner_replay", 2129.7);
    ("version_compile", 1058626.4);
    ("profile_step", 2171.7);
    ("summary_step", 829.3);
  ]

(* Figure-2 shape: a loop-body component plus a tail component. *)
let alloc_loop_ts =
  let open Peak_ir in
  let module B = Builder in
  B.ts ~name:"alloc_probe" ~params:[ "n" ] ~arrays:[ ("a", 256); ("b", 256) ]
    ~locals:[ "i"; "t" ]
    B.
      [
        for_ "i" ~lo:(ci 0) ~hi:(v "n") [ store "a" (v "i") (idx "b" (v "i") + c 1.0) ];
        "t" := idx "a" (ci 0) * c 2.0;
      ]

let alloc_budget_file = "ci/alloc_budget.json"
let alloc_report_file = "BENCH_alloc.json"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let alloc_exp () =
  heading "Allocation budget: bytes per invocation on the rating hot paths";
  (* an unreadable budget file fails the experiment: a gate without
     budgets would pass anything *)
  let budget =
    let open Peak_store in
    match Json.of_string (read_file alloc_budget_file) with
    | Error e -> failwith (Printf.sprintf "%s: %s" alloc_budget_file e)
    | Ok j -> (
        fun k ->
          match Json.get_float k j with
          | Ok v -> v
          | Error e -> failwith (Printf.sprintf "%s: %s" alloc_budget_file e))
  in
  let open Peak_ir in
  (* interp_step: one compiled invocation of the Figure-2 loop (n=256)
     on a reused scratch *)
  let cfg = Cfg.of_ts alloc_loop_ts in
  let env = Interp.make_env alloc_loop_ts in
  Interp.set_scalar env "n" 256.0;
  let compiled = Interp.compile cfg env in
  let scratch = Interp.make_scratch compiled in
  let interp_step = bytes_per_call (fun () -> Interp.run_compiled compiled scratch) 2000 in
  (* rating_window: one 80-sample convergence check on a warm scratch *)
  let rng = Rng.create ~seed:1 in
  let samples = List.init 80 (fun _ -> 100.0 +. Rng.float rng) in
  let params = Rating.default_params in
  let rscratch = Rating.make_scratch () in
  let rating_window =
    bytes_per_call (fun () -> Rating.summarize_into rscratch ~params samples) 5000
  in
  (* runner_step: one full simulated invocation (interpret + cost model)
     of ART — a trace without a class_of cache, so the compiled
     interpreter actually runs every step — metered between minor
     collections, exactly *)
  let b = bench "ART" in
  let tsec = Tsection.make b.Benchmark.ts in
  let trace = b.Benchmark.trace Trace.Train ~seed:3 in
  let runner = Runner.create ~seed:3 tsec trace Machine.sparc2 in
  let version = Version.compile Machine.sparc2 tsec.Tsection.features Optconfig.o3 in
  let runner_step =
    bytes_per_invocation (fun () ->
        ((fun () -> for _ = 1 to 2000 do ignore (Runner.step runner version) done), 2000))
  in
  (* runner_replay: the same step on an ordinal a shared tape has
     already recorded — a rating runner following another through the
     session tape reads the recorded result instead of interpreting *)
  let tape =
    Tape.shared tsec ~name:trace.Trace.name ~length:trace.Trace.length (fun () ->
        b.Benchmark.trace Trace.Train ~seed:3)
  in
  let lead = Runner.of_tape ~seed:3 tape Machine.sparc2 in
  for _ = 1 to (3 * 2000) + 2 do
    ignore (Runner.step lead version)
  done;
  let follower = Runner.of_tape ~seed:4 tape Machine.sparc2 in
  let runner_replay = bytes_per_call (fun () -> Runner.step follower version) 2000 in
  (* version_compile: pricing ART's section under -O3 — what a search
     pays once per distinct configuration, and evaluation once per
     configuration it prices *)
  let version_compile =
    bytes_per_call
      (fun () -> Version.compile Machine.sparc2 tsec.Tsection.features Optconfig.o3)
      2000
  in
  (* profile_step: one Profile.run of MESA's train pass (48,250
     invocations, one distinct context each: the context table's worst
     case), per invocation, with the trace built before metering *)
  let mesa = bench "MESA" in
  let mesa_tsec = Tsection.make mesa.Benchmark.ts in
  let profile_step =
    bytes_per_invocation (fun () ->
        let trace = mesa.Benchmark.trace Trace.Train ~seed:3 in
        ( (fun () -> ignore (Profile.run mesa_tsec trace Machine.sparc2)),
          trace.Trace.length ))
  in
  (* summary_step: one Driver.pass_summary of GZIP's ref pass (123,900
     invocations), per invocation, trace construction included *)
  let gzip = bench "GZIP" in
  let gzip_ref = (gzip.Benchmark.trace Trace.Ref ~seed:5).Trace.length in
  let summary_step =
    bytes_per_invocation (fun () ->
        ((fun () -> ignore (Driver.pass_summary gzip Machine.pentium4 Trace.Ref)), gzip_ref))
  in
  let after =
    [
      ("interp_step", interp_step);
      ("rating_window", rating_window);
      ("runner_step", runner_step);
      ("runner_replay", runner_replay);
      ("version_compile", version_compile);
      ("profile_step", profile_step);
      ("summary_step", summary_step);
    ]
  in
  let t = Table.create ~header:[ "Meter"; "Before B/call"; "After B/call"; "Budget"; "Verdict" ] () in
  List.iter
    (fun (k, after_b) ->
      let limit = budget k in
      let ok = after_b <= limit in
      Gate.check ok "%s allocates %.1f B/call, over its budget of %.1f (see %s)" k after_b limit
        alloc_budget_file;
      Table.add_row t
        [
          k;
          Printf.sprintf "%.1f" (List.assoc k alloc_before);
          Printf.sprintf "%.1f" after_b;
          Printf.sprintf "%.1f" limit;
          (if ok then "ok" else "OVER");
        ])
    after;
  Table.print t;
  note "interp_step is the compiled Figure-2 loop (n=256) on a reused scratch;";
  note "its budget of %.0f byte/call means the steady-state loop allocates nothing."
    (budget "interp_step");
  let open Peak_store in
  Gate.write alloc_report_file
    (Json.Obj
       (List.map
          (fun (k, after_b) ->
            ( k,
              Json.Obj
                [
                  ("before_bytes_per_call", Json.Float (List.assoc k alloc_before));
                  ("after_bytes_per_call", Json.Float after_b);
                  ("budget_bytes_per_call", Json.Float (budget k));
                ] ))
          after))

(* ================================================================== *)
(* Tuning service: a synthetic client fleet against peak-tuned          *)
(* ================================================================== *)

let serve_report_file = "BENCH_serve.json"

(* Latency percentile over a sorted array, nearest-rank. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* One synthetic tenant: submit, retrying on saturation after the
   server's quoted retry-after, until the session finishes. *)
type serve_client_outcome = {
  sc_latency : float;  (** submit-to-result wall seconds, retries included *)
  sc_retries : int;
  sc_result : (string * Peak_store.Codec.session_result, string) result;
}

let serve_exp () =
  heading "Tuning service: client fleet vs peak-tuned (admission + multiplexing)";
  let fleet = 500 and capacity = 16 and domains = 4 and quantum = 64 in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "peak-serve-bench.%d" (Unix.getpid ()))
  in
  rm_rf root;
  Unix.mkdir root 0o755;
  let store = Filename.concat root "store" in
  let endpoint = Peak_serve.Wire.Unix_sock (Filename.concat root "sock") in
  let daemon =
    match
      Peak_serve.Daemon.create
        { Peak_serve.Daemon.store; endpoint; domains; max_sessions = capacity; quantum }
    with
    | Ok d -> d
    | Error e ->
        rm_rf root;
        failwith ("cannot start daemon: " ^ e)
  in
  let server = Thread.create Peak_serve.Daemon.serve daemon in
  (* every tenant tunes the same cheap benchmark under a distinct seed,
     so the 500 session ids are distinct and each run costs ~tens of ms *)
  let spec_of_seed seed mode =
    {
      Peak_serve.Wire.sb_benchmark = "ART";
      sb_machine = "pentium4";
      sb_dataset = "train";
      sb_search = "be";
      sb_method = "rbr";
      sb_seed = seed;
      sb_cap = Some 40;
      sb_mode = mode;
    }
  in
  let run_client i =
    let seed = 1000 + i in
    let t0 = Unix.gettimeofday () in
    let retries = ref 0 in
    let rec connect_with_retry attempts =
      match Peak_serve.Client.connect endpoint with
      | Ok c -> Ok c
      | Error _ when attempts > 0 ->
          Thread.delay 0.02;
          connect_with_retry (attempts - 1)
      | Error e -> Error e
    in
    let result =
      match connect_with_retry 100 with
      | Error e -> Error e
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Peak_serve.Client.close c)
            (fun () ->
              let rec go () =
                match
                  Peak_serve.Client.run c
                    (Peak_serve.Wire.Submit (spec_of_seed seed Peak_serve.Wire.Wait))
                with
                | Ok (Peak_serve.Client.Saturated retry_after) ->
                    incr retries;
                    Thread.delay retry_after;
                    go ()
                | Ok (Peak_serve.Client.Finished { id; result; _ }) -> Ok (id, result)
                | Ok (Peak_serve.Client.Accepted_only _) ->
                    Error "unexpected detached acceptance in wait mode"
                | Error e -> Error e
              in
              go ())
    in
    { sc_latency = Unix.gettimeofday () -. t0; sc_retries = !retries; sc_result = result }
  in
  let t0 = Unix.gettimeofday () in
  let outcomes = Array.make fleet None in
  let threads =
    List.init fleet (fun i ->
        Thread.create (fun () -> outcomes.(i) <- Some (run_client i)) ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  Peak_serve.Daemon.stop daemon;
  Thread.join server;
  let outcomes = Array.map Option.get outcomes in
  let failures =
    Array.to_list outcomes
    |> List.filter_map (fun o ->
           match o.sc_result with Error e -> Some e | Ok _ -> None)
  in
  let completed = fleet - List.length failures in
  let retries = Array.fold_left (fun a o -> a + o.sc_retries) 0 outcomes in
  let latencies =
    Array.of_list
      (Array.to_list outcomes
      |> List.filter_map (fun o ->
             match o.sc_result with Ok _ -> Some o.sc_latency | Error _ -> None))
  in
  Array.sort compare latencies;
  (* bit-identity spot check: a few tenants' wire results vs the batch
     library path at one domain (fresh store, same parameters) *)
  let refstore = Filename.concat root "refstore" in
  let identical =
    List.for_all
      (fun i ->
        match outcomes.(i).sc_result with
        | Error _ -> false
        | Ok (_, wire_result) ->
            let b = bench "ART" in
            let params = { Rating.default_params with Rating.max_invocations = 40 } in
            let meta =
              Driver.session_meta ~method_:Method.Rbr ~strategy:Strategy.Be
                ~rating_params:params ~seed:(1000 + i) b Machine.pentium4 Trace.Train
            in
            let reference =
              Pool.run ~domains:1 (fun pool ->
                  match Peak_store.Session.open_ ~dir:refstore ~meta () with
                  | Error e -> Error e
                  | Ok session ->
                      Fun.protect
                        ~finally:(fun () -> Peak_store.Session.close session)
                        (fun () ->
                          Ok
                            (Driver.result_summary
                               (Driver.tune ~seed:(1000 + i) ~strategy:Strategy.Be
                                  ~rating_params:params ~method_:Method.Rbr ~pool
                                  ~store:session b Machine.pentium4 Trace.Train))))
            in
            (match reference with
            | Error _ -> false
            | Ok ref_result ->
                let open Peak_store in
                Json.to_string (Codec.session_result_to_json wire_result)
                = Json.to_string (Codec.session_result_to_json ref_result)))
      [ 0; fleet / 2; fleet - 1 ]
  in
  let throughput = if wall > 0.0 then float_of_int completed /. wall else 0.0 in
  let p50 = percentile latencies 0.50
  and p95 = percentile latencies 0.95
  and p99 = percentile latencies 0.99 in
  let t = Table.create ~header:[ "Metric"; "Value" ] () in
  Table.add_row t [ "fleet"; string_of_int fleet ];
  Table.add_row t [ "capacity"; Printf.sprintf "%d sessions / %d domains" capacity domains ];
  Table.add_row t [ "completed"; string_of_int completed ];
  Table.add_row t [ "saturated retries"; string_of_int retries ];
  Table.add_row t [ "wall"; Printf.sprintf "%.2f s" wall ];
  Table.add_row t [ "throughput"; Printf.sprintf "%.1f sessions/s" throughput ];
  Table.add_row t [ "latency p50"; Printf.sprintf "%.1f ms" (1000.0 *. p50) ];
  Table.add_row t [ "latency p95"; Printf.sprintf "%.1f ms" (1000.0 *. p95) ];
  Table.add_row t [ "latency p99"; Printf.sprintf "%.1f ms" (1000.0 *. p99) ];
  Table.add_row t [ "bit-identical vs -j 1 batch"; yes_no identical ];
  Table.print t;
  note "every session either completes or is rejected with a retry-after the";
  note "client honors; results are byte-identical to the batch library path.";
  Gate.check (completed = fleet) "%d of %d clients failed: %s" (List.length failures) fleet
    (match failures with e :: _ -> e | [] -> "?");
  Gate.check identical "daemon results diverge from the batch library path";
  (let open Peak_store in
   let json =
     Json.Obj
       [
         ("fleet", Json.Int fleet);
         ("capacity", Json.Int capacity);
         ("domains", Json.Int domains);
         ("quantum", Json.Int quantum);
         ("completed", Json.Int completed);
         ("failed", Json.Int (List.length failures));
         ("saturated_retries", Json.Int retries);
         ("wall_seconds", Json.Float wall);
         ("throughput_per_second", Json.Float throughput);
         ("latency_p50_ms", Json.Float (1000.0 *. p50));
         ("latency_p95_ms", Json.Float (1000.0 *. p95));
         ("latency_p99_ms", Json.Float (1000.0 *. p99));
         ("bit_identical", Json.Bool identical);
       ]
   in
   Gate.write serve_report_file json);
  rm_rf root

(* ================================================================== *)
(* Search strategies: quality vs. rating spend, head-to-head           *)
(* ================================================================== *)

let search_report_file = "BENCH_search.json"

(* Snapshot a store directory (regular files and directories only) so
   each staged domain count starts from the same warmed corpus with no
   completed session of its own to replay. *)
let rec search_cp_r src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
      Unix.mkdir dst 0o755;
      Array.iter
        (fun e -> search_cp_r (Filename.concat src e) (Filename.concat dst e))
        (Sys.readdir src)
  | Unix.S_REG ->
      let ic = open_in_bin src in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      let oc = open_out_bin dst in
      output_string oc body;
      close_out oc
  | _ -> ()

let search_exp () =
  heading "Search strategies: ratings to within 1% of the best-known config";
  let machine = Machine.pentium4 and method_ = Method.Rbr and seed = 3 in
  note "Every registered strategy tunes every workload (Pentium IV, RBR, train";
  note "data, seed %d); quality is the ref-data whole-program improvement of" seed;
  note "the final configuration.  staged races in its journal-trained setup:";
  note "the store's rating index is warmed by one Batch Elimination session";
  note "first (spend in the corpus column, amortized across every later tune";
  note "of that store), and the same staged session re-runs at -j 1/2/4 on";
  note "snapshots of the warmed store to check byte-identity.";
  with_temp_dir "peak-bench-search" @@ fun root ->
  let tolerance = 1.01 in
  let tune_stored ~domains ~dir ~strategy b =
    let meta = Driver.session_meta ~seed ~method_ ~strategy b machine Trace.Train in
    match Peak_store.Session.open_ ~dir ~meta () with
    | Error e -> failwith e
    | Ok s ->
        Fun.protect
          ~finally:(fun () -> Peak_store.Session.close s)
          (fun () ->
            Pool.run ~domains (fun pool ->
                Driver.tune ~seed ~strategy ~method_ ~pool ~store:s b machine Trace.Train))
  in
  let t =
    Table.create
      ~header:
        [ "Benchmark"; "Best %"; "staged % (r)"; "CE % (r)"; "corpus r"; "<=1%"; "<CE r"; "-j id" ]
      ()
  in
  let rows =
    List.map
      (fun (b : Benchmark.t) ->
        let name = b.Benchmark.name in
        let warm_dir = Filename.concat root (name ^ "-warm") in
        let warm = tune_stored ~domains:1 ~dir:warm_dir ~strategy:Strategy.Be b in
        (match Peak_store.Session.gc ~dir:warm_dir with
        | Ok _ -> ()
        | Error e -> failwith e);
        let staged_runs =
          List.map
            (fun domains ->
              let dir = Filename.concat root (Printf.sprintf "%s-j%d" name domains) in
              search_cp_r warm_dir dir;
              (domains, tune_stored ~domains ~dir ~strategy:Strategy.Staged b))
            [ 1; 2; 4 ]
        in
        let staged = List.assoc 1 staged_runs in
        let domains_identical =
          identical
            (Printf.sprintf "%s: staged result differs across -j 1/2/4" name)
            (List.map (fun _ -> staged) staged_runs)
            (List.map snd staged_runs)
        in
        let on_ref = Driver.pass_summary b machine Trace.Ref in
        let scored =
          List.map
            (fun strategy ->
              let r =
                if strategy = Strategy.Staged then staged
                else Driver.tune ~seed ~strategy ~method_ b machine Trace.Train
              in
              (strategy, r, Driver.summary_improvement_pct on_ref ~best:r.Driver.best_config))
            Strategy.all
        in
        let best = List.fold_left (fun acc (_, _, imp) -> Float.max acc imp) neg_infinity scored in
        let find s =
          let _, r, imp = List.find (fun (s', _, _) -> s' = s) scored in
          (r, imp)
        in
        let staged_r, staged_imp = find Strategy.Staged in
        let ce_r, _ = find Strategy.Ce in
        (* within tolerance on the time axis: T(staged)/T(best), where
           improvement i means T(-O3)/T = 1 + i/100 *)
        let gap = (100.0 +. best) /. (100.0 +. staged_imp) in
        let within = gap <= tolerance in
        let fewer =
          staged_r.Driver.search_stats.Search.ratings < ce_r.Driver.search_stats.Search.ratings
        in
        Gate.check within "%s: staged %.1f%% is %.2f%% off the best-known %.1f%%" name staged_imp
          ((gap -. 1.0) *. 100.0) best;
        Gate.check fewer "%s: staged spent %d ratings, CE %d" name
          staged_r.Driver.search_stats.Search.ratings ce_r.Driver.search_stats.Search.ratings;
        Table.add_row t
          [
            name;
            Printf.sprintf "%.1f" best;
            Printf.sprintf "%.1f (%d)" staged_imp staged_r.Driver.search_stats.Search.ratings;
            Printf.sprintf "%.1f (%d)"
              (let _, imp = find Strategy.Ce in
               imp)
              ce_r.Driver.search_stats.Search.ratings;
            string_of_int warm.Driver.search_stats.Search.ratings;
            yes_no within;
            yes_no fewer;
            yes_no domains_identical;
          ];
        (name, warm, scored, best, within, fewer, domains_identical))
      Registry.all
  in
  Table.print t;
  note "r = ratings spent by the search; corpus r = the warmup Batch Elimination";
  note "spend the staged screen trains on (paid once per store, not per tune).";
  (let open Peak_store in
   let json =
     Json.Obj
       [
         ("seed", Json.Int seed);
         ("machine", Json.String "pentium4");
         ("method", Json.String (Method.key method_));
         ("tolerance_pct", Json.Float ((tolerance -. 1.0) *. 100.0));
         ( "workloads",
           Json.Obj
             (List.map
                (fun (name, warm, scored, best, within, fewer, domains_identical) ->
                  ( name,
                    Json.Obj
                      [
                        ("best_known_pct", Json.Float best);
                        ( "corpus_ratings",
                          Json.Int warm.Driver.search_stats.Search.ratings );
                        ("staged_within_tolerance", Json.Bool within);
                        ("staged_fewer_ratings_than_ce", Json.Bool fewer);
                        ("staged_byte_identical_across_domains", Json.Bool domains_identical);
                        ( "strategies",
                          Json.Obj
                            (List.map
                               (fun (s, r, imp) ->
                                 ( Strategy.key s,
                                   Json.Obj
                                     [
                                       ( "ratings",
                                         Json.Int r.Driver.search_stats.Search.ratings );
                                       ("improvement_pct", Json.Float imp);
                                     ] ))
                               scored) );
                      ] ))
                rows) );
         ("pass", Json.Bool (Gate.passed ()));
       ]
   in
   Gate.write search_report_file json)

(* ------------------------------------------------------------------ *)
(* Knowledge base: does collaborative warm starting actually save      *)
(* ratings, and does it save more as the corpus grows?                 *)
(* ------------------------------------------------------------------ *)

let kb_report_file = "BENCH_kb.json"

let kb_exp () =
  heading "Knowledge base: tuning spend as the donor corpus grows";
  let machine = Machine.pentium4 and method_ = Method.Rbr and seed = 3 in
  let mname = String.lowercase_ascii machine.Machine.name in
  let target_name = "MGRID" in
  let target = List.find (fun b -> b.Benchmark.name = target_name) Registry.all in
  let donors = List.filter (fun b -> b.Benchmark.name <> target_name) Registry.all in
  note "Every donor is tuned once (Batch Elimination, Pentium IV, RBR, seed %d)" seed;
  note "and its session becomes one knowledge-base row.  %s — held out of the" target_name;
  note "corpus — is then tuned cold and with the KB's recommended start over";
  note "nearest-first corpus prefixes; the gate requires the rating spend to be";
  note "monotone non-increasing in corpus size, strictly lower at the full";
  note "corpus than cold, with every run within 1%% of the best-known quality.";
  let donor_info =
    List.map
      (fun (b : Benchmark.t) ->
        let r = Driver.tune ~seed ~strategy:Strategy.Be ~method_ b machine Trace.Train in
        let speedup =
          match Peak_store.Kb.speedup_of_result (Driver.result_summary r) with
          | Some s -> s
          | None -> 1.0
        in
        let row =
          {
            Peak_store.Kb.rw_benchmark = String.lowercase_ascii b.Benchmark.name;
            rw_machine = mname;
            rw_features = Knowledge.program_features b machine;
            rw_config = r.Driver.best_config;
            rw_speedup = speedup;
            rw_samples = 1;
          }
        in
        (b.Benchmark.name, row, r.Driver.search_stats.Search.ratings))
      donors
  in
  let full = Peak_store.Kb.of_rows (List.map (fun (_, row, _) -> row) donor_info) in
  let qf = Knowledge.program_features target machine in
  (* nearest-first donor order, from the distances the recommender itself
     reports (min across the configs each donor voted for) *)
  let nearest =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun r ->
        List.iter
          (fun (name, d) ->
            match Hashtbl.find_opt tbl name with
            | Some d' when d' <= d -> ()
            | _ -> Hashtbl.replace tbl name d)
          r.Peak_store.Kb.rec_neighbors)
      (Peak_store.Kb.recommend full ~features:qf ~machine:mname ~k:(List.length donors) ());
    List.sort
      (fun (n1, d1) (n2, d2) ->
        let c = Float.compare d1 d2 in
        if c <> 0 then c else String.compare n1 n2)
      (Hashtbl.fold (fun n d acc -> (n, d) :: acc) tbl [])
  in
  let sizes = [ 0; 4; 8; List.length donors ] in
  let on_ref = Driver.pass_summary target machine Trace.Ref in
  let curve =
    List.map
      (fun size ->
        let keep =
          List.filteri (fun i _ -> i < size) nearest |> List.map fst
        in
        let kb =
          Peak_store.Kb.of_rows
            (List.filter_map
               (fun (name, row, _) ->
                 if List.mem (String.lowercase_ascii name) keep then Some row else None)
               donor_info)
        in
        let r =
          if size = 0 then Driver.tune ~seed ~method_ target machine Trace.Train
          else Driver.tune ~seed ~method_ ~kb target machine Trace.Train
        in
        let imp = Driver.summary_improvement_pct on_ref ~best:r.Driver.best_config in
        (size, r.Driver.search_stats.Search.ratings, imp))
      sizes
  in
  let best = List.fold_left (fun acc (_, _, imp) -> Float.max acc imp) neg_infinity curve in
  let tolerance = 1.01 in
  let t = Table.create ~header:[ "Corpus"; "Ratings"; "Improvement %"; "<=1%" ] () in
  let curve =
    List.map
      (fun (size, ratings, imp) ->
        let gap = (100.0 +. best) /. (100.0 +. imp) in
        let within = gap <= tolerance in
        Gate.check within "corpus %d: final quality %.1f%% is %.2f%% off the best-known %.1f%%"
          size imp ((gap -. 1.0) *. 100.0) best;
        Table.add_row t
          [
            string_of_int size;
            string_of_int ratings;
            Printf.sprintf "%.1f" imp;
            yes_no within;
          ];
        (size, ratings, imp, within))
      curve
  in
  Table.print t;
  (let rec check_monotone = function
     | (s1, r1, _, _) :: ((s2, r2, _, _) :: _ as rest) ->
         Gate.check (r2 <= r1) "ratings grew from %d (corpus %d) to %d (corpus %d)" r1 s1 r2 s2;
         check_monotone rest
     | _ -> ()
   in
   check_monotone curve);
  (match (curve, List.rev curve) with
  | (0, cold, _, _) :: _, (fullsz, warm, _, _) :: _ ->
      Gate.check (warm < cold) "full corpus (%d donors) spent %d ratings, cold spent %d" fullsz
        warm cold;
      if warm < cold then note "full corpus saves %d of %d cold ratings" (cold - warm) cold
  | _ -> ());
  (let open Peak_store in
   let json =
     Json.Obj
       [
         ("seed", Json.Int seed);
         ("machine", Json.String mname);
         ("method", Json.String (Method.key method_));
         ("target", Json.String target_name);
         ("tolerance_pct", Json.Float ((tolerance -. 1.0) *. 100.0));
         ( "donors",
           Json.Obj
             (List.map
                (fun (name, row, ratings) ->
                  ( name,
                    Json.Obj
                      [
                        ("ratings", Json.Int ratings);
                        ("speedup", Json.Float row.Kb.rw_speedup);
                      ] ))
                donor_info) );
         ( "curve",
           Json.List
             (List.map
                (fun (size, ratings, imp, within) ->
                  Json.Obj
                    [
                      ("corpus", Json.Int size);
                      ("ratings", Json.Int ratings);
                      ("improvement_pct", Json.Float imp);
                      ("within_tolerance", Json.Bool within);
                    ])
                curve) );
         ("pass", Json.Bool (Gate.passed ()));
       ]
   in
   Gate.write kb_report_file json)

let experiments =
  [
    ("table1", table1);
    ("fig7ab", fig7ab);
    ("fig7cd", fig7cd);
    ("summary", summary);
    ("ablation-rbr", ablation_rbr);
    ("ablation-outlier", ablation_outlier);
    ("ablation-search", ablation_search);
    ("ablation-ranges", ablation_ranges);
    ("ablation-batch", ablation_batch);
    ("ablation-compile", ablation_compile);
    ("flag-effects", flag_effects);
    ("ablation-consultant", ablation_consultant);
    ("adaptive", adaptive);
    ("fallback", fallback_exp);
    ("parallel", parallel);
    ("store", store_exp);
    ("faults", faults_exp);
    ("tracing", tracing_exp);
    ("micro", micro);
    ("alloc", alloc_exp);
    ("serve", serve_exp);
    ("search", search_exp);
    ("kb", kb_exp);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      Gate.experiment := name;
      match List.assoc_opt name experiments with
      (* a setup error (no daemon, no budget file) fails its experiment *)
      | Some f -> ( try f () with Failure msg | Sys_error msg -> Gate.check false "%s" msg)
      | None ->
          Gate.check false "unknown experiment; available: %s"
            (String.concat ", " (List.map fst experiments)))
    requested;
  Printf.printf "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0);
  match List.rev !Gate.failures with
  | [] -> ()
  | failures ->
      List.iter (fun (experiment, msg) -> Printf.eprintf "%s: %s\n" experiment msg) failures;
      exit 1
