(* peak-tune: command-line front end to the PEAK tuning system.

     peak-tune list                         enumerate benchmarks
     peak-tune flags                        enumerate the 38 -O3 flags
     peak-tune analyze SWIM                 profile + consultant report
     peak-tune tune ART -m pentium4 -r rbr  run one tuning session
     peak-tune tune ART --store ./peakdb    ... persistently (resumable)
     peak-tune suite -j 4                   tune the Figure 7 set in parallel
     peak-tune session list --store ./peakdb   inspect the tuning store
     peak-tune consistency APSI             Table-1-style consistency row *)

open Cmdliner
open Peak_util
open Peak_machine
open Peak_compiler
open Peak_workload
open Peak

(* Every subcommand body runs under this guard: any expected failure —
   unknown names, inapplicable rating methods, a forced method that finds
   no usable samples (CBR on a context that never recurs), store
   corruption, filesystem errors — prints as one line on stderr and
   exits 1 instead of dumping an uncaught-exception backtrace. *)
let guard f =
  try f () with
  | Invalid_argument msg
  | Failure msg
  | Sys_error msg
  | Method.Not_applicable msg
  | Rating.No_samples msg ->
      prerr_endline ("peak-tune: " ^ msg);
      exit 1

let die msg =
  prerr_endline ("peak-tune: " ^ msg);
  exit 1

let or_die = function Ok v -> v | Error msg -> die msg

(* --faults SPEC: "default" enables the canonical 5% crash / 2%
   wrong-output plan (seeded by the experiment seed unless SPEC pins
   one); anything else is a Fault.of_string spec. *)
let parse_faults ~seed = function
  | None -> Ok None
  | Some "default" ->
      Ok (Some (Peak_sim.Fault.create ~spec:Peak_sim.Fault.default_spec ~seed ()))
  | Some spec -> (
      match Peak_sim.Fault.of_string spec with
      | Ok plan -> Ok (Some plan)
      | Error e -> Error ("bad --faults spec: " ^ e))

let print_quarantine (r : Driver.result) =
  if r.Driver.quarantined <> [] || r.Driver.fault_retries > 0 then begin
    Printf.printf "Fault tolerance: %d configuration%s quarantined, %d transient retr%s\n"
      (List.length r.Driver.quarantined)
      (if List.length r.Driver.quarantined = 1 then "" else "s")
      r.Driver.fault_retries
      (if r.Driver.fault_retries = 1 then "y" else "ies");
    List.iter
      (fun (c, reason) ->
        Printf.printf "  quarantined (%s): %s\n" reason (Optconfig.to_string c))
      r.Driver.quarantined
  end

let print_result machine (r : Driver.result) =
  print_quarantine r;
  Printf.printf "Rating method: %s\n" (Method.name r.Driver.method_used);
  (match r.Driver.attempts with
  | [] | [ _ ] -> ()
  | attempts ->
      Printf.printf "Fallback chain: %s (%s abandoned after a non-converged probe)\n"
        (Method.chain_string attempts)
        (String.concat ", "
           (List.filter_map
              (fun (a : Method.attempt) ->
                if a.Method.a_converged then None else Some (Method.name a.Method.a_method))
              attempts)));
  Printf.printf "Best configuration: %s\n" (Optconfig.to_string r.Driver.best_config);
  Printf.printf "Search: %d ratings over %d iterations, %d invocations, %d program runs\n"
    r.Driver.search_stats.Search.ratings r.Driver.search_stats.Search.iterations
    r.Driver.invocations r.Driver.passes;
  Printf.printf "Tuning time: %.2f simulated seconds (%.3f of the WHL-equivalent cost)\n"
    r.Driver.tuning_seconds (Report.normalized_tuning_time r);
  let imp =
    Driver.improvement_pct r.Driver.benchmark machine ~best:r.Driver.best_config Trace.Ref
  in
  Printf.printf "Whole-program improvement over -O3 (ref data set): %s\n"
    (Table.fmt_signed_percent imp)

(* ---------------- tracing ---------------- *)

let print_metrics (s : Peak_obs.snapshot) =
  Printf.printf "Tracer: %d buffered event%s, %d dropped, %d open span%s\n"
    s.Peak_obs.events
    (if s.Peak_obs.events = 1 then "" else "s")
    s.Peak_obs.dropped s.Peak_obs.open_spans
    (if s.Peak_obs.open_spans = 1 then "" else "s");
  if s.Peak_obs.span_stats <> [] then begin
    let t = Table.create ~header:[ "Span category"; "Count"; "Total (ms)" ] () in
    List.iter
      (fun (cat, st) ->
        Table.add_row t
          [
            cat;
            string_of_int st.Peak_obs.s_count;
            Printf.sprintf "%.3f" (st.Peak_obs.s_total *. 1e3);
          ])
      s.Peak_obs.span_stats;
    Table.print t
  end;
  if s.Peak_obs.counters <> [] then begin
    let t = Table.create ~header:[ "Counter"; "Value" ] () in
    List.iter (fun (k, v) -> Table.add_row t [ k; string_of_int v ]) s.Peak_obs.counters;
    Table.print t
  end;
  if s.Peak_obs.timings <> [] then begin
    let t = Table.create ~header:[ "Timing"; "Count"; "Total (ms)" ] () in
    List.iter
      (fun (k, tm) ->
        Table.add_row t
          [
            k;
            string_of_int tm.Peak_obs.t_count;
            Printf.sprintf "%.3f" (tm.Peak_obs.t_total *. 1e3);
          ])
      s.Peak_obs.timings;
    Table.print t
  end

(* Install the tracer sink around [f] when asked to.  The export runs in
   the finalizer, so an interrupted run still leaves a (partial but
   valid) trace behind. *)
let with_tracing ~trace ~metrics f =
  if trace = None && not metrics then f ()
  else begin
    (* open the trace file up front: an unwritable path must die with
       the usual one-line error before the tuning run, not after it *)
    let out =
      match trace with
      | None -> None
      | Some path -> (
          match open_out path with
          | oc -> Some (path, oc)
          | exception Sys_error e -> die ("cannot write trace file: " ^ e))
    in
    Peak_obs.install ();
    Fun.protect
      ~finally:(fun () ->
        (match (out, Peak_obs.export ()) with
        | Some (path, oc), Some doc -> (
            try
              output_string oc doc;
              close_out oc;
              Printf.printf "Trace written to %s\n" path
            with Sys_error e ->
              close_out_noerr oc;
              prerr_endline ("peak-tune: trace write failed: " ^ e))
        | Some (_, oc), None -> close_out_noerr oc
        | None, _ -> ());
        (match (metrics, Peak_obs.snapshot ()) with
        | true, Some snap -> print_metrics snap
        | _ -> ());
        Peak_obs.uninstall ())
      f
  end

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Record a span/event trace of the run and write it to $(docv) in Chrome trace \
           format (load in about://tracing or Perfetto; inspect with $(b,trace \
           summarize)).  Tracing only observes: results are bit-identical with it on or \
           off.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the tracer's metrics snapshot (span, counter and timing totals) after \
           the run.")

(* ---------------- arguments ---------------- *)

let benchmark_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc:"Benchmark name (see $(b,list)).")

let machine_arg =
  Arg.(value & opt string "sparc2" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Target machine: sparc2 or pentium4.")

let method_arg =
  Arg.(
    value
    & opt string "auto"
    & info [ "r"; "rating" ] ~docv:"METHOD"
        ~doc:
          (Printf.sprintf "Rating method: auto or one of %s (see $(b,methods))."
             (String.concat ", " Method.keys)))

let rating_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "rating-cap" ] ~docv:"N"
        ~doc:
          "Cap each rating at $(docv) trace invocations (default 20000).  A cap below the \
           convergence window forces the \xC2\xA73 fallback chain in auto mode.")

let rating_params_of_cap = function
  | None -> Rating.default_params
  | Some n ->
      if n < 1 then die "rating cap must be >= 1";
      { Rating.default_params with Rating.max_invocations = n }

let dataset_arg =
  Arg.(
    value
    & opt string "train"
    & info [ "d"; "dataset" ] ~docv:"DATASET" ~doc:"Tuning data set: train or ref.")

let seed_arg =
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Experiment seed.")

let search_arg =
  Arg.(
    value
    & opt string "ie"
    & info [ "s"; "search"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Search strategy: ie, be, ce, random[N], ff, ose or staged (see \
           $(b,strategies)).")

(* ---------------- subcommands ---------------- *)

let list_cmd =
  let run () =
    let t =
      Table.create
        ~header:[ "Benchmark"; "Kind"; "Tuning section"; "Paper #invoc."; "Scale"; "Paper method" ]
        ()
    in
    List.iter
      (fun (b : Benchmark.t) ->
        Table.add_row t
          [
            b.Benchmark.name;
            Benchmark.kind_name b.Benchmark.kind;
            b.Benchmark.ts_name;
            b.Benchmark.paper_invocations;
            b.Benchmark.scale;
            b.Benchmark.paper_method;
          ])
      (List.sort
         (fun (a : Benchmark.t) (b : Benchmark.t) ->
           String.compare a.Benchmark.name b.Benchmark.name)
         Registry.all);
    Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List the SPEC-like benchmarks.") Term.(const run $ const ())

let flags_cmd =
  let run () =
    let t = Table.create ~header:[ "Flag"; "-O level"; "Description" ] () in
    Array.iter
      (fun (f : Flags.t) ->
        Table.add_row t
          [ Flags.gcc_name f; Printf.sprintf "-O%d" f.Flags.level; f.Flags.description ])
      Flags.all;
    Table.print t
  in
  Cmd.v
    (Cmd.info "flags" ~doc:"List the 38 optimization flags implied by GCC 3.3 -O3.")
    Term.(const run $ const ())

let analyze_cmd =
  let run name machine_name seed =
    guard @@ fun () ->
    let b = or_die (Registry.of_string name) in
    let machine = or_die (Machine.of_string machine_name) in
    let tsec = Tsection.make b.Benchmark.ts in
    let trace = b.Benchmark.trace Trace.Train ~seed in
    Printf.printf "Tuning section %s of %s on %s\n" b.Benchmark.ts_name b.Benchmark.name
      machine.Machine.name;
    Printf.printf "  CFG blocks: %d   max pressure: %d   save/restore: %d bytes\n"
      (Peak_ir.Cfg.n_blocks tsec.Tsection.cfg)
      tsec.Tsection.features.Peak_ir.Features.max_pressure
      (Tsection.save_restore_bytes tsec);
    let profile = Profile.run ~seed tsec trace machine in
    let advice = Consultant.advise tsec profile in
    Printf.printf "  Invocations per train run: %d   mean invocation: %.0f cycles\n"
      profile.Profile.n_invocations profile.Profile.avg_invocation_cycles;
    (match profile.Profile.context with
    | Profile.Cbr_ok { sources; stats; runtime_constant_arrays; pruned } ->
        Printf.printf "  Context variables: [%s]"
          (String.concat "; "
             (List.map
                (function
                  | Peak_ir.Expr.Scalar v -> v
                  | Peak_ir.Expr.Array_elem (a, Some k) -> Printf.sprintf "%s[%d]" a k
                  | Peak_ir.Expr.Array_elem (a, None) -> a ^ "[*]"
                  | Peak_ir.Expr.Pointer_deref p -> "*" ^ p)
                sources));
        if pruned <> [] then
          Printf.printf "  (+%d pruned run-time constants)" (List.length pruned);
        if runtime_constant_arrays <> [] then
          Printf.printf "  (run-time-constant arrays: %s)"
            (String.concat ", " runtime_constant_arrays);
        Printf.printf "\n  Distinct contexts: %d" (List.length stats);
        (match stats with
        | s :: _ -> Printf.printf "   dominant share: %.0f%%\n" (s.Profile.time_share *. 100.0)
        | [] -> print_newline ())
    | Profile.Cbr_no reason -> Printf.printf "  CBR inapplicable: %s\n" reason);
    Printf.printf "  MBR components: %d\n"
      (Component_analysis.n_components profile.Profile.components);
    Printf.printf "  Applicable methods: %s\n"
      (String.concat ", " (List.map Method.name advice.Consultant.applicable));
    List.iter (fun r -> Printf.printf "    - %s\n" r) advice.Consultant.reasons;
    Printf.printf "  Consultant's choice: %s (paper: %s)\n"
      (Method.name advice.Consultant.chosen)
      b.Benchmark.paper_method
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Profile a benchmark and report the consultant's advice.")
    Term.(const run $ benchmark_arg $ machine_arg $ seed_arg)

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Persist ratings to the tuning store at $(docv); re-running resumes.")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject deterministic faults while tuning: $(b,default) (5% crashing, 2% \
           miscompiled configurations) or a spec like \
           $(b,seed=3,crash=0.05,wrong=0.02,transient=0.01,burst=0.1).  Faulty \
           configurations are quarantined and the session still completes.")

let fault_retries_arg =
  Arg.(
    value
    & opt int 2
    & info [ "fault-retries" ] ~docv:"N"
        ~doc:
          "Retry a failing configuration on up to $(docv) fresh attempt-keyed runners \
           before quarantining it (every attempt is charged to the tuning ledger).")

let tune_cmd =
  let warm_arg =
    Arg.(
      value & flag
      & info [ "warm" ]
          ~doc:"Start the search from the top recommendation of a knowledge base built \
                from the store's own sessions, as $(b,--kb) would (requires $(b,--store)).")
  in
  let kb_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "kb" ] ~docv:"FILE"
          ~doc:
            "Warm-start from a knowledge base written by $(b,kb build): its top \
             recommendation becomes the start configuration, and its rows train the \
             $(b,staged) strategy's screening corpus.")
  in
  let run name machine_name method_name dataset_name search_name seed store_dir warm
      kb_path cap faults_spec retries trace metrics =
    guard @@ fun () ->
    let b = or_die (Registry.of_string name) in
    let machine = or_die (Machine.of_string machine_name) in
    let dataset = or_die (Trace.dataset_of_string dataset_name) in
    let search = or_die (Strategy.of_string search_name) in
    let method_ = or_die (Method.request_of_string method_name) in
    let rating_params = rating_params_of_cap cap in
    let faults = or_die (parse_faults ~seed faults_spec) in
    if retries < 0 then die "--fault-retries must be >= 0";
    if warm && store_dir = None then die "--warm requires --store DIR";
    if warm && kb_path <> None then die "--warm and --kb are mutually exclusive";
    (* --warm is --kb over the store's own corpus.  The start is
       resolved here — not inside the driver — so a store-backed session
       records it in its meta and resumes without needing the KB again. *)
    let kb =
      match (kb_path, store_dir) with
      | Some p, _ -> Some (or_die (Peak_store.Kb.load p))
      | None, Some dir when warm -> Some (or_die (Knowledge.build ~dir))
      | None, _ -> None
    in
    let start =
      Option.bind kb (fun kb ->
          match Knowledge.start kb b machine with
          | None ->
              Printf.printf
                "Knowledge base: no recommendation for %s on %s; starting from -O3\n"
                b.Benchmark.name machine.Machine.name;
              None
          | Some r ->
              Printf.printf
                "Knowledge base start (predicted speedup %.2fx, %d donor session%s): %s\n"
                r.Peak_store.Kb.rec_predicted r.Peak_store.Kb.rec_support
                (if r.Peak_store.Kb.rec_support = 1 then "" else "s")
                (Optconfig.to_string r.Peak_store.Kb.rec_config);
              Some r.Peak_store.Kb.rec_config)
    in
    Printf.printf "Tuning %s (%s) on %s, %s data set...\n%!" b.Benchmark.name
      b.Benchmark.ts_name machine.Machine.name (Trace.dataset_name dataset);
    with_tracing ~trace ~metrics @@ fun () ->
    match store_dir with
    | None ->
        print_result machine
          (Driver.tune ~seed ~strategy:search ~rating_params ?method_ ?start ?kb ?faults
             ~retries b machine dataset)
    | Some dir ->
        let meta =
          Driver.session_meta ?method_ ~strategy:search ~rating_params ~seed ?start ?faults b machine
            dataset
        in
        let session = or_die (Peak_store.Session.open_ ~dir ~meta ()) in
        let id = (Peak_store.Session.meta session).Peak_store.Codec.m_id in
        let loaded = Peak_store.Session.loaded_events session in
        if loaded > 0 then
          Printf.printf "Resuming session %s (%d stored ratings)\n%!" id loaded
        else Printf.printf "Recording session %s\n%!" id;
        Fun.protect
          ~finally:(fun () -> Peak_store.Session.close session)
          (fun () ->
            print_result machine
              (Driver.tune ~seed ~strategy:search ~rating_params ?method_ ~store:session ?kb
                 ?faults ~retries b machine dataset))
  in
  Cmd.v
    (Cmd.info "tune" ~doc:"Run one offline tuning session (the Figure 7 experiment).")
    Term.(
      const run $ benchmark_arg $ machine_arg $ method_arg $ dataset_arg $ search_arg
      $ seed_arg $ store_arg $ warm_arg $ kb_arg $ rating_cap_arg $ faults_arg
      $ fault_retries_arg $ trace_arg $ metrics_arg)

let suite_cmd =
  let benchmarks_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"BENCHMARK"
          ~doc:"Benchmarks to tune (default: the Figure 7 set).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Tune on $(docv) domains in parallel.")
  in
  let run names machine_name method_name dataset_name search_name seed jobs store_dir cap
      faults_spec retries trace metrics =
    guard @@ fun () ->
    let benchmarks =
      match names with
      | [] -> Registry.figure7
      | names -> List.map (fun name -> or_die (Registry.of_string name)) names
    in
    let machine = or_die (Machine.of_string machine_name) in
    let dataset = or_die (Trace.dataset_of_string dataset_name) in
    let search = or_die (Strategy.of_string search_name) in
    let method_ = or_die (Method.request_of_string method_name) in
    let rating_params = rating_params_of_cap cap in
    let faults = or_die (parse_faults ~seed faults_spec) in
    if retries < 0 then die "--fault-retries must be >= 0";
    if jobs < 1 then die "jobs must be >= 1";
    Printf.printf "Tuning %d benchmarks on %s, %s data set, %d domain%s...\n%!"
      (List.length benchmarks) machine.Machine.name (Trace.dataset_name dataset) jobs
      (if jobs = 1 then "" else "s");
    with_tracing ~trace ~metrics @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let results =
      Driver.tune_suite ~seed ~strategy:search ~rating_params ?method_ ~domains:jobs ?store_dir
        ?faults ~retries benchmarks machine dataset
    in
    let wall = Unix.gettimeofday () -. t0 in
    let with_faults = faults <> None in
    let t =
      Table.create
        ~header:
          ([ "Benchmark"; "Method"; "Best configuration"; "Improv."; "Tuning s"; "Ratings" ]
          @ if with_faults then [ "Quar."; "Retries" ] else [])
        ()
    in
    List.iter
      (fun (r : Driver.result) ->
        let imp =
          Driver.improvement_pct r.Driver.benchmark machine ~best:r.Driver.best_config Trace.Ref
        in
        Table.add_row t
          ([
             r.Driver.benchmark.Benchmark.name;
             Method.chain_string r.Driver.attempts;
             Optconfig.to_string r.Driver.best_config;
             Table.fmt_signed_percent imp;
             Printf.sprintf "%.1f" r.Driver.tuning_seconds;
             string_of_int r.Driver.search_stats.Search.ratings;
           ]
          @
          if with_faults then
            [
              string_of_int (List.length r.Driver.quarantined);
              string_of_int r.Driver.fault_retries;
            ]
          else []))
      results;
    Table.print t;
    Printf.printf "Suite wall time: %.2f s on %d domain%s\n" wall jobs
      (if jobs = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Tune a set of benchmarks concurrently on a domain pool.  Results are \
          bit-identical for every $(b,-j) value.")
    Term.(
      const run $ benchmarks_arg $ machine_arg $ method_arg $ dataset_arg $ search_arg
      $ seed_arg $ jobs_arg $ store_arg $ rating_cap_arg $ faults_arg $ fault_retries_arg
      $ trace_arg $ metrics_arg)

let consistency_cmd =
  let run name machine_name seed =
    guard @@ fun () ->
    let b = or_die (Registry.of_string name) in
    let machine = or_die (Machine.of_string machine_name) in
    let rows = Consistency.measure ~seed ~n_ratings:20 b machine in
    let t =
      Table.create
        ~header:[ "Tuning Section"; "Approach"; "w=10"; "w=20"; "w=40"; "w=80"; "w=160" ]
        ()
    in
    List.iter
      (fun (row : Consistency.row) ->
        Table.add_row t
          ((match row.Consistency.context_label with
           | Some l -> Printf.sprintf "%s(%s)" b.Benchmark.ts_name l
           | None -> b.Benchmark.ts_name)
           :: Method.name row.Consistency.method_used
           :: List.map
                (fun (c : Consistency.cell) ->
                  Printf.sprintf "%.2f(%.2f)" c.Consistency.mean_x100 c.Consistency.stddev_x100)
                row.Consistency.cells))
      rows;
    Table.print t
  in
  Cmd.v
    (Cmd.info "consistency" ~doc:"Measure rating consistency (one Table 1 row).")
    Term.(const run $ benchmark_arg $ machine_arg $ seed_arg)

let instrument_cmd =
  let run name machine_name seed =
    guard @@ fun () ->
    let b = or_die (Registry.of_string name) in
    let machine = or_die (Machine.of_string machine_name) in
    let tsec = Tsection.make b.Benchmark.ts in
    let trace = b.Benchmark.trace Trace.Train ~seed in
    let profile = Profile.run ~seed tsec trace machine in
    let advice = Consultant.advise tsec profile in
    print_string (Instrument.render tsec profile advice)
  in
  Cmd.v
    (Cmd.info "instrument"
       ~doc:"Show the instrumented tuning section (the PEAK Instrumentation Tool's output).")
    Term.(const run $ benchmark_arg $ machine_arg $ seed_arg)

let show_cmd =
  let optimize_arg =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:"Apply the IR-level constant propagation and dead-assignment elimination first.")
  in
  let run name optimize =
    guard @@ fun () ->
    let b = or_die (Registry.of_string name) in
    let ts = b.Benchmark.ts in
    let ts = if optimize then Peak_ir.Transform.optimize ts else ts in
    print_string (Peak_ir.Pretty.ts_to_c ts)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a benchmark's tuning section as pseudo-C.")
    Term.(const run $ benchmark_arg $ optimize_arg)

let methods_cmd =
  let run () =
    let t =
      Table.create ~header:[ "Method"; "Fallback order"; "Applicable when"; "Rating approach" ] ()
    in
    let order m =
      let rec go i = function
        | [] -> "-"
        | x :: tl -> if x = m then string_of_int (i + 1) else go (i + 1) tl
      in
      go 0 Method.auto_chain
    in
    List.iter
      (fun m -> Table.add_row t [ Method.name m; order m; Method.condition m; Method.describe m ])
      Method.all;
    Table.print t;
    print_endline
      "Auto mode walks the applicable methods in fallback order, probing each (but the \
       last) for convergence on the start configuration."
  in
  Cmd.v
    (Cmd.info "methods"
       ~doc:"List the registered rating methods, their applicability and fallback order.")
    Term.(const run $ const ())

let strategies_cmd =
  let run () =
    let t = Table.create ~header:[ "Strategy"; "Key"; "Stages"; "Approach" ] () in
    List.iter
      (fun s ->
        Table.add_row t [ Strategy.name s; Strategy.key s; Strategy.stage_plan s; Strategy.describe s ])
      Strategy.all;
    Table.print t;
    print_endline
      "Select with tune/suite/submit -s KEY.  random takes an optional sample count \
       (e.g. random500); staged trains its screening stage on the store's rating index \
       when --store is given."
  in
  Cmd.v
    (Cmd.info "strategies"
       ~doc:"List the registered search strategies and their stage structure.")
    Term.(const run $ const ())

(* ---------------- session: the persistent tuning store ---------------- *)

let store_req_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc:"Tuning store directory.")

let session_id_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Session id.")

let session_list_cmd =
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print session ids only, one per line.")
  in
  let run dir quiet =
    guard @@ fun () ->
    let infos = or_die (Peak_store.Session.list ~dir) in
    if quiet then
      List.iter
        (fun (i : Peak_store.Session.info) ->
          print_endline i.Peak_store.Session.info_meta.Peak_store.Codec.m_id)
        infos
    else begin
      let t =
        Table.create
          ~header:
            [ "Session"; "Benchmark"; "Machine"; "Search"; "Method"; "Status"; "Ratings"; "Best" ]
          ()
      in
      List.iter
        (fun (i : Peak_store.Session.info) ->
          let m = i.Peak_store.Session.info_meta in
          let status, best =
            match i.Peak_store.Session.info_result with
            | Some r ->
                ( Printf.sprintf "done (%s)" r.Peak_store.Codec.r_method,
                  Optconfig.to_string r.Peak_store.Codec.r_best )
            | None when i.Peak_store.Session.info_live -> ("live", "-")
            | None -> ("in progress", "-")
          in
          Table.add_row t
            [
              m.Peak_store.Codec.m_id;
              m.Peak_store.Codec.m_benchmark;
              m.Peak_store.Codec.m_machine;
              m.Peak_store.Codec.m_search;
              m.Peak_store.Codec.m_method;
              status;
              string_of_int i.Peak_store.Session.info_events;
              best;
            ])
        infos;
      Table.print t;
      let dropped =
        List.fold_left
          (fun acc (i : Peak_store.Session.info) -> acc + i.Peak_store.Session.info_dropped)
          0 infos
      in
      if dropped > 0 then
        Printf.printf "(%d malformed journal line%s; run gc to compact)\n" dropped
          (if dropped = 1 then "" else "s")
    end
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the store's sessions, sorted by id.")
    Term.(const run $ store_req_arg $ quiet_arg)

let session_show_cmd =
  let run dir id =
    guard @@ fun () ->
    let info = or_die (Peak_store.Session.load_info ~dir ~id) in
    let m = info.Peak_store.Session.info_meta in
    Printf.printf "Session %s\n" m.Peak_store.Codec.m_id;
    Printf.printf "  Benchmark: %s on %s, %s data set\n" m.Peak_store.Codec.m_benchmark
      m.Peak_store.Codec.m_machine m.Peak_store.Codec.m_dataset;
    Printf.printf "  Search: %s   method: %s   seed: %d\n" m.Peak_store.Codec.m_search
      m.Peak_store.Codec.m_method m.Peak_store.Codec.m_seed;
    Printf.printf "  Rating params: %s   threshold: %g\n" m.Peak_store.Codec.m_params
      m.Peak_store.Codec.m_threshold;
    Printf.printf "  Start configuration: %s\n"
      (Optconfig.to_string m.Peak_store.Codec.m_start);
    if m.Peak_store.Codec.m_faults <> "-" then
      Printf.printf "  Fault plan: %s\n" m.Peak_store.Codec.m_faults;
    Printf.printf "  Journal: %d rating event%s" info.Peak_store.Session.info_events
      (if info.Peak_store.Session.info_events = 1 then "" else "s");
    if info.Peak_store.Session.info_dropped > 0 then
      Printf.printf " (+%d malformed line%s)" info.Peak_store.Session.info_dropped
        (if info.Peak_store.Session.info_dropped = 1 then "" else "s");
    print_newline ();
    match info.Peak_store.Session.info_result with
    | None -> print_endline "  Status: in progress (resumable)"
    | Some r ->
        Printf.printf "  Status: done — %s found %s\n" r.Peak_store.Codec.r_method
          (Optconfig.to_string r.Peak_store.Codec.r_best);
        (match r.Peak_store.Codec.r_attempts with
        | [] | [ _ ] -> ()
        | attempts ->
            Printf.printf "  Fallback chain: %s\n"
              (String.concat " > "
                 (List.map
                    (fun (a : Peak_store.Codec.attempt) ->
                      Printf.sprintf "%s (%s, %d rating%s)" a.Peak_store.Codec.at_method
                        (if a.Peak_store.Codec.at_converged then "committed"
                         else "abandoned")
                        a.Peak_store.Codec.at_ratings
                        (if a.Peak_store.Codec.at_ratings = 1 then "" else "s"))
                    attempts)));
        Printf.printf "  %d ratings over %d iterations, %d invocations, %d program runs\n"
          r.Peak_store.Codec.r_ratings r.Peak_store.Codec.r_iterations
          r.Peak_store.Codec.r_invocations r.Peak_store.Codec.r_passes;
        Printf.printf "  Tuning time: %.2f simulated seconds\n"
          r.Peak_store.Codec.r_tuning_seconds;
        (match r.Peak_store.Codec.r_metrics with
        | None -> ()
        | Some x ->
            Printf.printf "  Metrics: %s over %d tuning cycle%s\n"
              (match x.Peak_store.Codec.x_methods with
              | [] -> "no ratings"
              | ms ->
                  String.concat ", "
                    (List.map
                       (fun (mm : Peak_store.Codec.method_metrics) ->
                         Printf.sprintf "%s %d rating%s/%d invocation%s"
                           mm.Peak_store.Codec.mm_method mm.Peak_store.Codec.mm_ratings
                           (if mm.Peak_store.Codec.mm_ratings = 1 then "" else "s")
                           mm.Peak_store.Codec.mm_invocations
                           (if mm.Peak_store.Codec.mm_invocations = 1 then "" else "s"))
                       ms))
              (int_of_float x.Peak_store.Codec.x_cycles)
              (if x.Peak_store.Codec.x_cycles = 1.0 then "" else "s"));
        if r.Peak_store.Codec.r_quarantined <> [] || r.Peak_store.Codec.r_retries > 0 then begin
          Printf.printf "  Fault tolerance: %d quarantined, %d transient retr%s\n"
            (List.length r.Peak_store.Codec.r_quarantined)
            r.Peak_store.Codec.r_retries
            (if r.Peak_store.Codec.r_retries = 1 then "y" else "ies");
          List.iter
            (fun (c, reason) ->
              Printf.printf "    quarantined (%s): %s\n" reason (Optconfig.to_string c))
            r.Peak_store.Codec.r_quarantined
        end
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Show one session's parameters, journal state and result.")
    Term.(const run $ store_req_arg $ session_id_arg)

let session_resume_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Rate candidates on $(docv) domains.")
  in
  let run dir id jobs =
    guard @@ fun () ->
    if jobs < 1 then die "jobs must be >= 1";
    let meta = (or_die (Peak_store.Session.load_info ~dir ~id)).Peak_store.Session.info_meta in
    let a = or_die (Driver.session_args meta) in
    let session = or_die (Peak_store.Session.open_ ~dir ~meta ()) in
    Printf.printf "Resuming session %s (%d stored ratings)\n%!" id
      (Peak_store.Session.loaded_events session);
    Fun.protect
      ~finally:(fun () -> Peak_store.Session.close session)
      (fun () ->
        let tune pool =
          Driver.tune ~seed:a.Driver.sa_seed ~strategy:a.Driver.sa_strategy
            ~rating_params:a.Driver.sa_params ~threshold:a.Driver.sa_threshold
            ?method_:a.Driver.sa_method ?pool ~store:session ?faults:a.Driver.sa_faults
            a.Driver.sa_benchmark a.Driver.sa_machine a.Driver.sa_dataset
        in
        let r =
          if jobs > 1 then Pool.run ~domains:jobs (fun pool -> tune (Some pool))
          else tune None
        in
        print_result a.Driver.sa_machine r)
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Finish an interrupted session from its journal.  The final result is \
          bit-identical to an uninterrupted run.")
    Term.(const run $ store_req_arg $ session_id_arg $ jobs_arg)

let session_gc_cmd =
  let run dir =
    guard @@ fun () ->
    let s = or_die (Peak_store.Session.gc ~dir) in
    Printf.printf
      "Compacted %d session%s: %d rating events indexed into %d entries, %d malformed \
       line%s removed\n"
      s.Peak_store.Session.gc_sessions
      (if s.Peak_store.Session.gc_sessions = 1 then "" else "s")
      s.Peak_store.Session.gc_events s.Peak_store.Session.gc_index_entries
      s.Peak_store.Session.gc_dropped
      (if s.Peak_store.Session.gc_dropped = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Compact journals (dropping crash tails) and rebuild the store index.")
    Term.(const run $ store_req_arg)

let session_export_cmd =
  let run dir =
    guard @@ fun () ->
    print_endline (Peak_store.Json.to_string (or_die (Peak_store.Session.export ~dir)))
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Dump the whole store as one JSON document on stdout.")
    Term.(const run $ store_req_arg)

let session_cmd =
  Cmd.group
    (Cmd.info "session"
       ~doc:"Inspect and manage the persistent tuning store (see $(b,tune --store)).")
    [ session_list_cmd; session_show_cmd; session_resume_cmd; session_gc_cmd; session_export_cmd ]

(* ---------------- trace: inspect Chrome-trace files ---------------- *)

let trace_summarize_cmd =
  let path_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"A trace file written by $(b,tune --trace).")
  in
  let run path =
    guard @@ fun () ->
    let t = or_die (Tracefile.load path) in
    let () = or_die (Tracefile.validate t) in
    print_string (Tracefile.summary t)
  in
  Cmd.v
    (Cmd.info "summarize"
       ~doc:
         "Validate a Chrome-trace file's schema (unique span ids, resolvable parents, \
          non-negative durations) and print its span, counter and timing summaries.")
    Term.(const run $ path_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace" ~doc:"Inspect trace files written by $(b,tune --trace).")
    [ trace_summarize_cmd ]

(* Per-method attempt statistics, recomputed from the store alone: the
   journal carries every rating event tagged with its method, and
   result.json carries the attempted-method chain of each completed
   session. *)
let report_cmd =
  let run dir =
    guard @@ fun () ->
    let infos = or_die (Peak_store.Session.list ~dir) in
    let t =
      Table.create ~header:[ "Session"; "Status"; "Attempts"; "Ratings by method" ] ()
    in
    List.iter
      (fun (i : Peak_store.Session.info) ->
        let m = i.Peak_store.Session.info_meta in
        let id = m.Peak_store.Codec.m_id in
        let evs, _ = Peak_store.Session.events ~dir ~id in
        let counts = Hashtbl.create 8 in
        List.iter
          (fun (e : Peak_store.Codec.event) ->
            let k = e.Peak_store.Codec.e_method in
            Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          evs;
        let by_method =
          Peak_store.Codec.method_names
          |> List.filter_map (fun name ->
                 Option.map (Printf.sprintf "%s:%d" name) (Hashtbl.find_opt counts name))
          |> String.concat " "
        in
        let status, attempts =
          match i.Peak_store.Session.info_result with
          | None -> ("in progress", "-")
          | Some r -> (
              ( "done",
                match r.Peak_store.Codec.r_attempts with
                | [] -> r.Peak_store.Codec.r_method
                | atts ->
                    String.concat ">"
                      (List.map
                         (fun (a : Peak_store.Codec.attempt) ->
                           if a.Peak_store.Codec.at_converged then a.Peak_store.Codec.at_method
                           else a.Peak_store.Codec.at_method ^ "*")
                         atts) ))
        in
        Table.add_row t [ id; status; attempts; (if by_method = "" then "-" else by_method) ])
      infos;
    Table.print t;
    print_endline "(* marks a method abandoned after a non-converged fallback probe)"
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Per-method attempt statistics of every session in a store — fallback chains and \
          rating-event counts, recomputed from the journals and results alone.")
    Term.(const run $ store_req_arg)

(* ---------------- client: talk to a peak-tuned daemon ---------------- *)

let daemon_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "daemon" ] ~docv:"ADDR"
        ~doc:"Daemon endpoint: $(b,unix:PATH) or $(b,tcp:HOST:PORT).")

let detach_arg =
  Arg.(
    value & flag
    & info [ "detach" ]
        ~doc:"Return as soon as the session is admitted; poll with $(b,client status).")

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:"Print the daemon's progress events (to stderr) while waiting.")

let client_mode detach stream =
  if detach && stream then die "--detach and --stream are mutually exclusive";
  if detach then Peak_serve.Wire.Detach
  else if stream then Peak_serve.Wire.Stream
  else Peak_serve.Wire.Wait

let print_wire_event ev =
  match ev with
  | Peak_serve.Wire.Ev_instant { ei_name; ei_args } ->
      Printf.eprintf "ev %s%s\n%!" ei_name
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) ei_args))
  | Peak_serve.Wire.Ev_counter { ec_name; ec_value } ->
      Printf.eprintf "ev %s = %d\n%!" ec_name ec_value
  | Peak_serve.Wire.Ev_span { es_name; es_dur; es_args } ->
      Printf.eprintf "ev %s (%.3fs)%s\n%!" es_name es_dur
        (String.concat "" (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) es_args))

(* The last four lines (method/best/ratings/tuning-cycles) are stable
   across resumed and uninterrupted runs of the same session — CI's
   bit-identity smoke diffs exactly that tail. *)
let print_client_result ~id ~resumed (r : Peak_store.Codec.session_result) =
  Printf.printf "session: %s\n" id;
  Printf.printf "resumed: %d replayed rating(s)\n" resumed;
  Printf.printf "method: %s\n" r.Peak_store.Codec.r_method;
  Printf.printf "best: %s\n" (Optconfig.to_string r.Peak_store.Codec.r_best);
  Printf.printf "ratings: %d over %d iterations\n" r.Peak_store.Codec.r_ratings
    r.Peak_store.Codec.r_iterations;
  Printf.printf "tuning-cycles: %.17g\n" r.Peak_store.Codec.r_tuning_cycles

let with_client daemon f =
  let endpoint = or_die (Peak_serve.Wire.endpoint_of_string daemon) in
  let c = or_die (Peak_serve.Client.connect endpoint) in
  Fun.protect ~finally:(fun () -> Peak_serve.Client.close c) (fun () -> f c)

let run_to_completion ~stream c req =
  let on_event = if stream then print_wire_event else fun _ -> () in
  match or_die (Peak_serve.Client.run ~on_event c req) with
  | Peak_serve.Client.Saturated retry_after ->
      die (Printf.sprintf "saturated; retry after %.2f s" retry_after)
  | Peak_serve.Client.Accepted_only { id; resumed } ->
      Printf.printf "session: %s\n" id;
      Printf.printf "resumed: %d replayed rating(s)\n" resumed;
      print_endline "accepted: running detached"
  | Peak_serve.Client.Finished { id; resumed; result } ->
      print_client_result ~id ~resumed result

let client_submit_cmd =
  let run daemon bench machine dataset search method_ seed cap detach stream =
    guard @@ fun () ->
    let mode = client_mode detach stream in
    let spec =
      {
        Peak_serve.Wire.sb_benchmark = bench;
        sb_machine = machine;
        sb_dataset = dataset;
        sb_search = search;
        sb_method = method_;
        sb_seed = seed;
        sb_cap = cap;
        sb_mode = mode;
      }
    in
    with_client daemon @@ fun c ->
    run_to_completion ~stream c (Peak_serve.Wire.Submit spec)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a tuning session to a daemon.  Waits for the result by default; results \
          are bit-identical to $(b,tune --store) with the same parameters.")
    Term.(
      const run $ daemon_arg $ benchmark_arg $ machine_arg $ dataset_arg $ search_arg
      $ method_arg $ seed_arg $ rating_cap_arg $ detach_arg $ stream_arg)

let client_resume_cmd =
  let run daemon id detach stream =
    guard @@ fun () ->
    let mode = client_mode detach stream in
    with_client daemon @@ fun c ->
    run_to_completion ~stream c (Peak_serve.Wire.Resume { rs_id = id; rs_mode = mode })
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Resume a stored session by id on the daemon.  Completed ratings replay from \
          the journal; the result is bit-identical to an uninterrupted run.")
    Term.(const run $ daemon_arg $ session_id_arg $ detach_arg $ stream_arg)

let client_status_cmd =
  let run daemon id =
    guard @@ fun () ->
    with_client daemon @@ fun c ->
    match or_die (Peak_serve.Client.request c (Peak_serve.Wire.Status_of id)) with
    | Peak_serve.Wire.Status_r { st_id; st_state; st_ratings } ->
        Printf.printf "session: %s\nstate: %s\nratings: %d\n" st_id
          (Peak_serve.Wire.state_to_string st_state)
          st_ratings
    | Peak_serve.Wire.Error_r e -> die e
    | _ -> die "unexpected response from daemon"
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Show a session's state and rating count on the daemon.")
    Term.(const run $ daemon_arg $ session_id_arg)

let client_stream_cmd =
  let run daemon id =
    guard @@ fun () ->
    with_client daemon @@ fun c ->
    match
      or_die
        (Peak_serve.Client.run ~on_event:print_wire_event c (Peak_serve.Wire.Stream_of id))
    with
    | Peak_serve.Client.Finished { id; resumed; result } ->
        print_client_result ~id ~resumed result
    | Peak_serve.Client.Accepted_only _ | Peak_serve.Client.Saturated _ ->
        die "unexpected response from daemon"
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Attach to a running session, printing progress events until it finishes.")
    Term.(const run $ daemon_arg $ session_id_arg)

let client_cancel_cmd =
  let run daemon id =
    guard @@ fun () ->
    with_client daemon @@ fun c ->
    match or_die (Peak_serve.Client.request c (Peak_serve.Wire.Cancel_of id)) with
    | Peak_serve.Wire.Cancel_ack id -> Printf.printf "cancelled: %s\n" id
    | Peak_serve.Wire.Error_r e -> die e
    | _ -> die "unexpected response from daemon"
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a running session.  The journal stays consistent, so the session can be \
          resumed later.")
    Term.(const run $ daemon_arg $ session_id_arg)

let client_stats_cmd =
  let run daemon =
    guard @@ fun () ->
    with_client daemon @@ fun c ->
    match or_die (Peak_serve.Client.request c Peak_serve.Wire.Stats_req) with
    | Peak_serve.Wire.Stats_r s ->
        Printf.printf "active: %d / %d\ncompleted: %d\nrejected: %d\ndomains: %d\n"
          s.Peak_serve.Wire.ss_active s.Peak_serve.Wire.ss_capacity
          s.Peak_serve.Wire.ss_completed s.Peak_serve.Wire.ss_rejected
          s.Peak_serve.Wire.ss_domains
    | Peak_serve.Wire.Error_r e -> die e
    | _ -> die "unexpected response from daemon"
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show the daemon's admission and pool statistics.")
    Term.(const run $ daemon_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a $(b,peak-tuned) daemon: submit, resume, watch and cancel tuning \
          sessions over its socket.")
    [
      client_submit_cmd; client_resume_cmd; client_status_cmd; client_stream_cmd;
      client_cancel_cmd; client_stats_cmd;
    ]

(* ---------------- kb: the collaborative knowledge base ---------------- *)

let kb_valid = "build | show | recommend | merge"

let kb_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"KB" ~doc:"A knowledge base written by $(b,kb build) or $(b,kb merge).")

let kb_build_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output path (default: $(b,kb.json) inside the store).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Shared cross-store corpus: merge every $(b,*.json) knowledge base found in \
             $(docv) into the result.")
  in
  let run dir out corpus =
    guard @@ fun () ->
    let kb = or_die (Knowledge.build ~dir) in
    let kb =
      match corpus with
      | None -> kb
      | Some cdir -> Peak_store.Kb.merge [ kb; or_die (Peak_store.Kb.load_corpus ~dir:cdir) ]
    in
    let path = Option.value ~default:(Filename.concat dir "kb.json") out in
    Peak_store.Kb.save kb path;
    Printf.printf "Wrote %s: %d row%s over %d program%s\n" path (Peak_store.Kb.size kb)
      (if Peak_store.Kb.size kb = 1 then "" else "s")
      (List.length (Peak_store.Kb.programs kb))
      (if List.length (Peak_store.Kb.programs kb) = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:
         "Aggregate the store's completed sessions into a knowledge base (deterministic: \
          the same store always produces a byte-identical file).")
    Term.(const run $ store_req_arg $ out_arg $ corpus_arg)

let kb_show_cmd =
  let run path =
    guard @@ fun () ->
    let kb = or_die (Peak_store.Kb.load path) in
    let t =
      Table.create ~header:[ "Benchmark"; "Machine"; "Speedup"; "Samples"; "Config" ] ()
    in
    List.iter
      (fun (r : Peak_store.Kb.row) ->
        Table.add_row t
          [
            r.Peak_store.Kb.rw_benchmark;
            r.Peak_store.Kb.rw_machine;
            Printf.sprintf "%.3fx" r.Peak_store.Kb.rw_speedup;
            string_of_int r.Peak_store.Kb.rw_samples;
            Optconfig.to_string r.Peak_store.Kb.rw_config;
          ])
      (Peak_store.Kb.rows kb);
    Table.print t;
    Printf.printf "(%d rows, %d programs, %d feature dims)\n" (Peak_store.Kb.size kb)
      (List.length (Peak_store.Kb.programs kb))
      (List.length Knowledge.dims)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"List a knowledge base's aggregated rows.")
    Term.(const run $ kb_path_arg)

let kb_recommend_cmd =
  let bench_pos_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"BENCHMARK" ~doc:"The benchmark to recommend a start for.")
  in
  let k_arg =
    Arg.(
      value & opt int 8
      & info [ "k" ] ~docv:"K" ~doc:"Nearest donor programs consulted (default 8).")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"Show at most $(docv) recommendations (default 5).")
  in
  let exclude_self_arg =
    Arg.(
      value & flag
      & info [ "exclude-self" ]
          ~doc:
            "Hold the benchmark's own rows out of the corpus (transfer-only evaluation).")
  in
  let run path name machine_name k top exclude_self =
    guard @@ fun () ->
    let b = or_die (Registry.of_string name) in
    let machine = or_die (Machine.of_string machine_name) in
    let kb = or_die (Peak_store.Kb.load path) in
    let exclude = if exclude_self then Some b.Benchmark.name else None in
    match
      Knowledge.recommend kb ~benchmark:b.Benchmark.name ~machine:machine.Machine.name ~k
        ?exclude ()
    with
    | [] ->
        Printf.printf "No recommendation: the knowledge base has no usable donors for %s on %s\n"
          b.Benchmark.name machine.Machine.name
    | recs ->
        let t =
          Table.create
            ~header:[ "Rank"; "Predicted"; "Support"; "Neighbors"; "Config" ]
            ()
        in
        List.iteri
          (fun i (r : Peak_store.Kb.recommendation) ->
            if i < top then
              Table.add_row t
                [
                  string_of_int (i + 1);
                  Printf.sprintf "%.3fx" r.Peak_store.Kb.rec_predicted;
                  string_of_int r.Peak_store.Kb.rec_support;
                  String.concat ","
                    (List.map
                       (fun (b, d) -> Printf.sprintf "%s(%.2f)" b d)
                       r.Peak_store.Kb.rec_neighbors);
                  Optconfig.to_string r.Peak_store.Kb.rec_config;
                ])
          recs;
        Table.print t
  in
  Cmd.v
    (Cmd.info "recommend"
       ~doc:
         "Rank start configurations for a benchmark by similarity-weighted collaborative \
          filtering, with predicted speedups.")
    Term.(
      const run $ kb_path_arg $ bench_pos_arg $ machine_arg $ k_arg $ top_arg
      $ exclude_self_arg)

let kb_merge_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path for the merged knowledge base.")
  in
  let files_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"KB" ~doc:"Knowledge bases to merge (order immaterial).")
  in
  let run out files =
    guard @@ fun () ->
    let kbs = List.map (fun f -> or_die (Peak_store.Kb.load f)) files in
    let kb = Peak_store.Kb.merge kbs in
    Peak_store.Kb.save kb out;
    Printf.printf "Wrote %s: %d row%s over %d program%s from %d input%s\n" out
      (Peak_store.Kb.size kb)
      (if Peak_store.Kb.size kb = 1 then "" else "s")
      (List.length (Peak_store.Kb.programs kb))
      (if List.length (Peak_store.Kb.programs kb) = 1 then "" else "s")
      (List.length files)
      (if List.length files = 1 then "" else "s")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:"Merge knowledge bases (e.g. from different stores or machines) into one.")
    Term.(const run $ out_arg $ files_arg)

let kb_cmd =
  (* the default term gives unknown subcommands the same one-line
     exit-1 contract as unknown methods and strategies, instead of
     cmdliner's multi-line usage error *)
  let default =
    let args_arg = Arg.(value & pos_all string [] & info [] ~docv:"COMMAND") in
    let run = function
      | [] -> die (Printf.sprintf "missing kb command (%s)" kb_valid)
      | c :: _ -> die (Printf.sprintf "unknown kb command %s (%s)" c kb_valid)
    in
    Term.(const run $ args_arg)
  in
  Cmd.group ~default
    (Cmd.info "kb"
       ~doc:
         "Build, inspect, query and merge the collaborative tuning knowledge base (see \
          $(b,tune --kb)).")
    [ kb_build_cmd; kb_show_cmd; kb_recommend_cmd; kb_merge_cmd ]

let main =
  let doc = "PEAK: rating compiler optimizations for automatic performance tuning" in
  Cmd.group (Cmd.info "peak-tune" ~version:"1.0.0" ~doc)
    [
      list_cmd; flags_cmd; analyze_cmd; tune_cmd; suite_cmd; session_cmd; trace_cmd;
      report_cmd; consistency_cmd; instrument_cmd; show_cmd; methods_cmd; strategies_cmd;
      client_cmd; kb_cmd;
    ]

let () =
  (* the kb group shares the one-line exit-1 contract of unknown
     methods/strategies for unknown subcommands; cmdliner's group
     dispatch would print a multi-line usage error first, so check
     before eval *)
  (if Array.length Sys.argv >= 3 && Sys.argv.(1) = "kb" then
     let sub = Sys.argv.(2) in
     if
       (not (List.mem sub [ "build"; "show"; "recommend"; "merge" ]))
       && not (String.length sub > 0 && sub.[0] = '-')
     then die (Printf.sprintf "unknown kb command %s (%s)" sub kb_valid));
  exit (Cmd.eval main)
