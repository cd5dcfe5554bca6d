(* PEAK's end-to-end benchmark: one command, three in-process workloads.

     main.exe --workload suite|fleet|replay --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
   runs a traced phase between two untraced ones, and prints the
   per-layer metrics read back from the exported trace.  Outputs are
   checked in both modes; a failed check prints [correct: false] and
   exits 1.  See README.md for the workloads and metric definitions. *)

open Peak
open Peak_workload
module Codec = Peak_store.Codec
module Json = Peak_store.Json
module Pool = Peak_util.Pool
module Machine = Peak_machine.Machine
module Wire = Peak_serve.Wire

let now = Unix.gettimeofday

type args = { workload : string; seed : int; seconds : float; trace : bool }

(* Run artifacts: reports, traces, and each run's temporary store. *)
let out = "_perfbench"

type outcome = {
  metrics : Output.metric list;
  checks : Output.check list;
  attempted : int;
  failed : int;
}

let machine = Machine.pentium4
let benchmarks = Array.of_list Registry.all
let mib = 1048576.0

let result_bytes r = Json.to_string (Codec.session_result_to_json r)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* A deterministic, non-negative seed derived from the workload seed. *)
let derive wseed tag = Hashtbl.hash (wseed, tag)

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    (g1.Gc.minor_words -. g0.Gc.minor_words) *. 8.0 /. mib,
    g1.Gc.major_collections - g0.Gc.major_collections )

let latency_metrics ~what latencies =
  let n = List.length latencies in
  let tail_value, tail_how =
    match Stats.tail latencies with
    | Some (p, v) -> (v, Printf.sprintf "p%d of n=%d %s (10 beyond)" p n what)
    | None -> (nan, Printf.sprintf "n=%d %s: too few for a tail" n what)
  in
  [
    Output.metric "latency_p50_s" "s" (Stats.median latencies)
      (Printf.sprintf "p50 of n=%d %s" n what);
    Output.metric "latency_tail_s" "s" tail_value tail_how;
  ]

let quality_metrics ~what speedups normalized =
  [
    Output.metric "speedup_vs_o3_geomean" "ratio" (Stats.geomean speedups)
      (Printf.sprintf "geomean over %d %s of T(-O3)/T(best), whole program on ref"
         (List.length speedups) what);
    Output.metric "tuning_time_vs_whl_geomean" "ratio" (Stats.geomean normalized)
      (Printf.sprintf "geomean over %d %s of Report.normalized_tuning_time (base: WHL cost)"
         (List.length normalized) what);
  ]

(* The quality ratios of tuned sessions, outside any timed phase:
   T(-O3)/T(best) on ref, two evaluations at a time, and tuning time
   against WHL. *)
let session_quality ~what (results : Driver.result list) =
  let speedups =
    Pool.run ~domains:2 (fun pool ->
        Pool.map pool
          (fun (r : Driver.result) ->
            1.0
            +. Driver.improvement_pct r.Driver.benchmark machine ~best:r.Driver.best_config
                 Trace.Ref
               /. 100.0)
          results)
  in
  quality_metrics ~what speedups (List.map Report.normalized_tuning_time results)

let finite_pos x = Float.is_finite x && x > 0.0

(* ================================================================== *)
(* suite: Driver.tune_suite over the 14 benchmarks, then evaluation     *)
(* ================================================================== *)

module Suite = struct
  type inputs = { benchmarks : Benchmark.t list; machine : Machine.t; strategy : Strategy.t }

  (* The suite's input is its benchmark list: all 14, in an order drawn
     from the workload seed.  Tuning runs at the CLI's default seed, so
     every order tunes the same 14 sessions; a different tuning seed
     changes the searches themselves, and with them how much work a
     pass does. *)
  let order ~wseed =
    let names = Array.map (fun (b : Benchmark.t) -> b.Benchmark.name) benchmarks in
    Peak_util.Rng.shuffle (Peak_util.Rng.create ~seed:(derive wseed "order")) names;
    Array.to_list names

  (* Everything `peak-tune suite` does before it calls tune_suite:
     resolve the benchmark, machine and search names. *)
  let inputs names =
    let find name =
      match Registry.by_name name with Some b -> b | None -> failwith ("no benchmark " ^ name)
    in
    {
      benchmarks = List.map find names;
      machine =
        (match Machine.by_name machine.Machine.name with
        | Some m -> m
        | None -> failwith "no machine");
      strategy = (match Strategy.of_string "ie" with Ok s -> s | Error e -> failwith e);
    }

  (* The set-up a `peak-tune suite` user waits for before tuning starts:
     a fresh process loads the libraries (the registry builds its 14
     programs at start-up) and resolves its inputs.  Timed as the median
     of [probes] fresh processes of this binary, each waited for. *)
  let probes = 31

  let setup_s ~wseed =
    Stats.median
      (List.init probes (fun _ ->
           let t0 = now () in
           let pid =
             Unix.create_process Sys.executable_name
               [| Sys.executable_name; "--setup-probe"; string_of_int wseed |]
               Unix.stdin Unix.stdout Unix.stderr
           in
           match Unix.waitpid [] pid with
           | _, Unix.WEXITED 0 -> now () -. t0
           | _ -> failwith "set-up probe failed"))

  (* What a pass keeps of each session.  The [Driver.result]s themselves
     (profiles included) are dropped after their pass, so the peak RSS
     does not grow with the number of passes. *)
  type session = {
    bytes : string;  (** result.json bytes *)
    speedup : float;  (** T(-O3)/T(best) on ref *)
    normalized : float;  (** Report.normalized_tuning_time *)
    ratings : int;  (** Search.stats ratings *)
    latency : float;  (** tune_suite call → this session's evaluated result *)
    finite : bool;  (** tuning cycles and tuning-time ratio finite and positive *)
  }

  type pass = { sessions : session list; wall : float }

  let registry_index =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i (b : Benchmark.t) -> Hashtbl.replace tbl b.Benchmark.name i) benchmarks;
    fun (r : Driver.result) -> Hashtbl.find tbl r.Driver.benchmark.Benchmark.name

  (* Results are evaluated in registry order whatever order they were
     tuned in, so a session's latency (tune wall plus the evaluations
     before it) does not depend on the seeded order. *)
  let pass inp =
    Peak_obs.with_span ~cat:"bench.pass" "pass" @@ fun _ ->
    let t0 = now () in
    let results =
      Peak_obs.with_span ~cat:"bench.tune_suite" "tune_suite" (fun _ ->
          Driver.tune_suite ~strategy:inp.strategy ~domains:1 inp.benchmarks inp.machine
            Trace.Train)
      |> List.sort (fun a b -> compare (registry_index a) (registry_index b))
    in
    let sessions =
      List.map
        (fun (r : Driver.result) ->
          let imp =
            Peak_obs.with_span ~cat:"bench.eval" ("eval:" ^ r.Driver.benchmark.Benchmark.name)
              (fun _ ->
                Driver.improvement_pct r.Driver.benchmark inp.machine ~best:r.Driver.best_config
                  Trace.Ref)
          in
          let latency = now () -. t0 in
          let normalized = Report.normalized_tuning_time r in
          {
            bytes = result_bytes (Driver.result_summary r);
            speedup = 1.0 +. (imp /. 100.0);
            normalized;
            ratings = r.Driver.search_stats.Search.ratings;
            latency;
            finite = finite_pos r.Driver.tuning_cycles && finite_pos normalized;
          })
        results
    in
    { sessions; wall = now () -. t0 }

  (* Whole passes until [seconds] have elapsed, and at least [min]. *)
  let passes ~min ~seconds inp =
    let t0 = now () in
    let rec go acc =
      let acc = pass inp :: acc in
      if List.length acc >= min && now () -. t0 >= seconds then List.rev acc else go acc
    in
    go []

  (* An untraced run makes at least three passes: the throughput is taken
     from the median pass, so one pass slowed by the host does not move
     it, and the latency tail has ten sessions beyond it. *)
  let min_passes = 3

  (* Sessions per second of the median pass. *)
  let rate ps =
    float_of_int (Array.length benchmarks) /. Stats.median (List.map (fun p -> p.wall) ps)

  (* A session passes when its result, tuning-time ratio and ref
     evaluation are finite and positive, and it is byte-identical,
     evaluation included, to the same session in the first pass. *)
  let check ps =
    let first = List.hd ps in
    let ok =
      List.concat_map
        (fun p ->
          List.map2
            (fun s s0 ->
              s.finite && finite_pos s.speedup && s.bytes = s0.bytes && s.speedup = s0.speedup)
            p.sessions first.sessions)
        ps
    in
    (List.length ok, List.length (List.filter Fun.id ok))

  let run a =
    let setup = setup_s ~wseed:a.seed in
    let inp = inputs (order ~wseed:a.seed) in
    if not a.trace then begin
      let ps = passes ~min:min_passes ~seconds:a.seconds inp in
      let attempted, passed = check ps in
      let first = List.hd ps in
      {
        metrics =
          [
            Output.metric "setup_s" "s" setup
              (Printf.sprintf
                 "median of %d fresh processes (start, load libraries, resolve 14 benchmarks, \
                  machine, search)"
                 probes);
            Output.metric "sessions_per_s" "sessions/s" (rate ps)
              (Printf.sprintf "14 sessions / tune+evaluate wall of the median of %d passes (%s s)"
                 (List.length ps)
                 (String.concat ", " (List.map (fun p -> Printf.sprintf "%.2f" p.wall) ps)));
          ]
          @ latency_metrics ~what:"sessions, tune_suite call to evaluated result"
              (List.concat_map (fun p -> List.map (fun s -> s.latency) p.sessions) ps)
          @ [
              Output.metric "completed_frac" "ratio"
                (float_of_int passed /. float_of_int attempted)
                (Printf.sprintf "%d checked / %d attempted" passed attempted);
            ]
          @ quality_metrics ~what:"benchmarks"
              (List.map (fun s -> s.speedup) first.sessions)
              (List.map (fun s -> s.normalized) first.sessions)
          @ [ Output.metric "peak_rss_mb" "MB" (Output.peak_rss_mb ()) "VmHWM, MiB" ];
        checks =
          [
            Output.check "suite.sessions" (passed = attempted)
              (Printf.sprintf "%d of %d finite and identical across passes" passed attempted);
          ];
        attempted;
        failed = attempted - passed;
      }
    end
    else begin
      (* untraced, traced, untraced again, a third of [seconds] each: the
         traced phase is compared with the mean of its neighbours, so
         drift over the run does not read as tracing overhead *)
      let passes () = passes ~min:1 ~seconds:(a.seconds /. 3.0) inp in
      let before, minor_mb, majors = gc_delta passes in
      let path = Filename.concat out (Printf.sprintf "suite-seed%d.trace.json" a.seed) in
      let traced, tr = Layers.traced ~path passes in
      let after = passes () in
      let before_sessions = 14 * List.length before in
      let sessions = 14 * List.length traced in
      (* every pass, traced or not, must equal the first *)
      let attempted, passed = check (before @ traced @ after) in
      {
        metrics =
          Layers.metrics tr
            {
              Layers.sessions;
              session_cat = "bench.pass";
              search_ratings =
                Stats.mean
                  (List.concat_map
                     (fun p -> List.map (fun s -> float_of_int s.ratings) p.sessions)
                     traced);
              overhead_frac = 1.0 -. (rate traced /. ((rate before +. rate after) /. 2.0));
              rejected = 0;
              gc_minor_mb = minor_mb /. float_of_int before_sessions;
              gc_major = float_of_int majors /. float_of_int before_sessions;
            };
        checks =
          Layers.checks tr ~tunes_expected:sessions
          @ [
              Output.check "suite.sessions" (passed = attempted)
                (Printf.sprintf "%d of %d finite and identical across passes, traced or not"
                   passed attempted);
            ];
        attempted;
        failed = attempted - passed;
      }
    end
end

(* ================================================================== *)
(* fleet and replay: a daemon and two closed-loop connections           *)
(* ================================================================== *)

module Serve = struct
  module L = Serve_loop

  let clients = 2
  let params = { Rating.default_params with Rating.max_invocations = 40 }

  (* RBR + BE + a 40-invocation cap, as the serve experiment submits. *)
  let spec (b : Benchmark.t) seed =
    {
      Wire.sb_benchmark = b.Benchmark.name;
      sb_machine = "pentium4";
      sb_dataset = "train";
      sb_search = "be";
      sb_method = "rbr";
      sb_seed = seed;
      sb_cap = Some 40;
      sb_mode = Wire.Wait;
    }

  let meta (b : Benchmark.t) seed =
    Driver.session_meta ~method_:Method.Rbr ~strategy:Strategy.Be ~rating_params:params ~seed b
      machine Trace.Train

  let item key seed =
    let b = benchmarks.(key) in
    { L.spec = spec b seed; id = (meta b seed).Codec.m_id; key }

  (* The batch library path for one session: a store session of its
     own, tuned on [pool]. *)
  let batch ~store ~pool (b : Benchmark.t) seed =
    match Peak_store.Session.open_ ~dir:store ~meta:(meta b seed) () with
    | Error e -> failwith ("batch session: " ^ e)
    | Ok session ->
        Fun.protect
          ~finally:(fun () -> Peak_store.Session.close session)
          (fun () ->
            Driver.tune ~seed ~strategy:Strategy.Be ~rating_params:params ~method_:Method.Rbr
              ~pool ~store:session b machine Trace.Train)

  (* Rounds of the 14 benchmark keys, each round in a seeded order;
     [make round position key] builds the item. *)
  let shuffled_rounds ~wseed make =
    let rng = Peak_util.Rng.create ~seed:(derive wseed "order") in
    fun r ->
      let keys = Array.init (Array.length benchmarks) Fun.id in
      Peak_util.Rng.shuffle rng keys;
      Array.mapi (make r) keys

  let ok_samples (ph : L.phase) =
    List.filter_map
      (fun (s : L.sample) -> match s.L.outcome with Ok r -> Some (s, r) | Error _ -> None)
      ph.L.samples

  let attempted (ph : L.phase) = List.length ph.L.samples + List.length ph.L.lost

  let rate ph =
    float_of_int (List.length (ok_samples ph)) /. Float.max 1e-9 (ph.L.t_end -. ph.L.t_start)

  (* The wall time of each round: from the moment the previous round's
     last session returned (the phase start for the first) to the moment
     its own last session returned.  The rounds' times add up to the
     phase's. *)
  let round_walls (ph : L.phase) =
    let ends = Array.make (List.length ph.L.samples / max 1 ph.L.round_len) ph.L.t_start in
    List.iter
      (fun (s : L.sample) ->
        let r = s.L.seq / ph.L.round_len in
        if r < Array.length ends then ends.(r) <- Float.max ends.(r) s.L.t_result)
      ph.L.samples;
    let _, walls =
      Array.fold_left
        (fun (prev, acc) e ->
          let e = Float.max prev e in
          (e, (e -. prev) :: acc))
        (ph.L.t_start, []) ends
    in
    List.rev walls

  (* Sessions per second of the median round, so a stretch of the phase
     that the host slowed does not move it (the suite's median pass, for
     a phase).  A failed session fails the run, so the rounds are whole. *)
  let round_rate ph = float_of_int ph.L.round_len /. Stats.median (round_walls ph)

  let failures (ph : L.phase) =
    List.filter_map
      (fun (s : L.sample) ->
        match s.L.outcome with Error e -> Some (s.L.item.L.id ^ ": " ^ e) | Ok _ -> None)
      ph.L.samples
    @ ph.L.lost

  (* A workload's verdict on one phase: the per-session output check,
     whole-phase checks, and (when asked for) the quality metrics. *)
  type verdict = {
    ok : L.sample -> Codec.session_result -> bool;
    checks : Output.check list;
    quality : Output.metric list;
  }

  let sessions_check name (ph : L.phase) v =
    let passed = List.length (List.filter (fun (s, r) -> v.ok s r) (ok_samples ph)) in
    let att = attempted ph in
    ( passed,
      Output.check (name ^ ".sessions") (passed = att)
        (match failures ph with
        | [] -> Printf.sprintf "%d of %d completed and checked" passed att
        | e :: _ -> Printf.sprintf "%d of %d completed; first failure: %s" passed att e) )

  (* Every session of a phase, one line each, for a look at a noisy run:
     its round, and submit, accepted and result times from the phase
     start, in seconds. *)
  let write_samples path (ph : L.phase) =
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
    output_string oc "round\tbenchmark\tid\tsubmit_s\taccepted_s\tresult_s\tlatency_s\n";
    List.iter
      (fun (s : L.sample) ->
        Printf.fprintf oc "%d\t%s\t%s\t%.6f\t%.6f\t%.6f\t%.6f\n" (s.L.seq / ph.L.round_len)
          s.L.item.L.spec.Wire.sb_benchmark s.L.item.L.id (s.L.t_submit -. ph.L.t_start)
          (s.L.t_accepted -. ph.L.t_start) (s.L.t_result -. ph.L.t_start)
          (s.L.t_result -. s.L.t_submit))
      ph.L.samples

  (* The shared driver: [prepare] fills the store (or not), the daemon is
     started [reps] times for a median, then the closed loop runs for
     [seconds].  With tracing, a traced phase on a freshly started daemon
     sits between two untraced ones. *)
  let run a ~name ~prepare ~rounds ~verify ~trace_checks =
    let reps = 9 in
    let work = Filename.concat out (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
    rm_rf work;
    Unix.mkdir work 0o755;
    Fun.protect ~finally:(fun () -> rm_rf work) @@ fun () ->
    let store = Filename.concat work "store" and sock = Filename.concat work "d.sock" in
    let prep_s, prep_how, prepared = prepare ~store in
    let d, starts = L.timed_starts ~reps ~store ~sock ~clients in
    let setup_rss = Output.peak_rss_mb () in
    let setup =
      Output.metric "setup_s" "s"
        (prep_s +. Stats.median starts)
        (Printf.sprintf "%smedian of %d daemon starts (create, %d connects, one Ping each)"
           prep_how reps clients)
    in
    let phase ?(seconds = a.seconds) d ~phase =
      Fun.protect
        ~finally:(fun () -> L.stop d)
        (fun () -> L.run_phase d (L.dispenser (rounds ~phase)) ~seconds)
    in
    (* sessions completed and checked, every check, quality metrics *)
    let judge label ph ~quality =
      let v = verify prepared ~work ~quality ph in
      let passed, sessions = sessions_check label ph v in
      let named (c : Output.check) = { c with Output.c_name = label ^ "." ^ c.Output.c_name } in
      (passed, sessions :: List.map named v.checks, v.quality)
    in
    if not a.trace then begin
      let ph = phase d ~phase:0 in
      let rss = Output.peak_rss_mb () in
      write_samples (Filename.concat out (Printf.sprintf "%s-seed%d.sessions.tsv" name a.seed)) ph;
      let passed, checks, quality = judge name ph ~quality:true in
      let att = attempted ph in
      let latencies =
        List.map (fun ((s : L.sample), _) -> s.L.t_result -. s.L.t_submit) (ok_samples ph)
      in
      {
        metrics =
          [
            setup;
            Output.metric "sessions_per_s" "sessions/s" (round_rate ph)
              (let walls = round_walls ph in
               Printf.sprintf
                 "%d sessions / wall of the median of %d whole rounds (%.2f-%.2f s; all %d \
                  sessions in %.3f s: %.3f/s)"
                 ph.L.round_len (List.length walls)
                 (List.fold_left Float.min infinity walls)
                 (List.fold_left Float.max 0.0 walls)
                 (List.length (ok_samples ph))
                 (ph.L.t_end -. ph.L.t_start) (rate ph));
          ]
          @ latency_metrics ~what:"sessions, submit to result (client side)" latencies
          @ [
              Output.metric "completed_frac" "ratio"
                (float_of_int passed /. float_of_int (max 1 att))
                (Printf.sprintf "%d completed and checked / %d attempted" passed att);
            ]
          @ quality
          @ [
              Output.metric "peak_rss_mb" "MB" rss
                (Printf.sprintf "VmHWM after the timed phase, MiB (%.1f after set-up)" setup_rss);
            ];
        checks;
        attempted = att;
        failed = att - passed;
      }
    end
    else begin
      (* untraced, traced, untraced again, each on its own daemon start
         and a third of [seconds] long: the traced phase is compared with
         the mean of its neighbours, so drift over the run does not read
         as tracing overhead *)
      let seconds = a.seconds /. 3.0 in
      let before, minor_mb, majors = gc_delta (fun () -> phase ~seconds d ~phase:0) in
      let path = Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" name a.seed) in
      let traced, tr =
        Layers.traced ~path (fun () -> phase ~seconds (L.start ~store ~sock ~clients) ~phase:1)
      in
      let after = phase ~seconds (L.start ~store ~sock ~clients) ~phase:2 in
      let judged =
        List.map
          (fun (label, ph) -> judge label ph ~quality:false)
          [ (name, before); (name ^ ".traced", traced); (name ^ ".after", after) ]
      in
      let passed = List.fold_left (fun acc (p, _, _) -> acc + p) 0 judged in
      let att = attempted before + attempted traced + attempted after in
      let per_before = float_of_int (max 1 (List.length (ok_samples before))) in
      {
        metrics =
          Layers.metrics tr
            {
              Layers.sessions = List.length (ok_samples traced);
              session_cat = "bench.session";
              search_ratings =
                Stats.mean
                  (List.map (fun (_, r) -> float_of_int r.Codec.r_ratings) (ok_samples traced));
              overhead_frac = 1.0 -. (rate traced /. ((rate before +. rate after) /. 2.0));
              rejected = traced.L.rejected;
              gc_minor_mb = minor_mb /. per_before;
              gc_major = float_of_int majors /. per_before;
            };
        checks =
          List.concat_map (fun (_, checks, _) -> checks) judged
          @ Layers.checks tr ~tunes_expected:(List.length traced.L.samples)
          @ trace_checks tr;
        attempted = att;
        failed = att - passed;
      }
    end

  (* ---------------- fleet: fresh sessions ---------------- *)

  let fleet a =
    let wseed = a.seed in
    let seed_of ~phase i = (derive wseed ("fleet", phase) * 100_000) + i in
    let rounds ~phase =
      shuffled_rounds ~wseed (fun r p key -> item key (seed_of ~phase ((r * 14) + p)))
    in
    (* One completed session per benchmark, chosen by the seed, is re-run
       through the batch library path at one domain and must match the
       daemon's result byte for byte; the re-runs give the quality
       metrics. *)
    let verify () ~work ~quality (ph : L.phase) =
      let rng = Peak_util.Rng.create ~seed:(derive wseed "sample") in
      let sample =
        List.filter_map
          (fun key ->
            match
              List.filter (fun ((s : L.sample), _) -> s.L.item.L.key = key) (ok_samples ph)
            with
            | [] -> None
            | candidates -> Some (Peak_util.Rng.choose rng (Array.of_list candidates)))
          (List.init (Array.length benchmarks) Fun.id)
      in
      let checked =
        Pool.run ~domains:2 (fun outer ->
            Pool.map outer
              (fun ((s : L.sample), wire) ->
                let b = benchmarks.(s.L.item.L.key) and seed = s.L.item.L.spec.Wire.sb_seed in
                let store = Filename.concat work ("batch-" ^ s.L.item.L.id) in
                let r = Pool.run ~domains:1 (fun pool -> batch ~store ~pool b seed) in
                (s.L.item.L.id, result_bytes (Driver.result_summary r) = result_bytes wire, r))
              sample)
      in
      let mismatched =
        List.filter_map (fun (id, same, _) -> if same then None else Some id) checked
      in
      {
        ok = (fun s _ -> not (List.mem s.L.item.L.id mismatched));
        checks =
          [
            Output.check "batch_identical"
              (mismatched = [] && List.length checked = Array.length benchmarks)
              (Printf.sprintf "%d of %d sampled sessions byte-identical to batch at one domain"
                 (List.length checked - List.length mismatched)
                 (List.length checked));
          ];
        quality =
          (if quality then
             session_quality ~what:"sampled sessions, one per benchmark,"
               (List.map (fun (_, _, r) -> r) checked)
           else []);
      }
    in
    run a ~name:"fleet"
      ~prepare:(fun ~store:_ -> (0.0, "", ()))
      ~rounds ~verify ~trace_checks:(fun _ -> [])

  (* ---------------- replay: completed sessions ---------------- *)

  type fill = {
    items : L.item array;  (** by benchmark key *)
    bytes : string array;  (** result.json bytes at fill time *)
    events : int array;  (** journal events at fill time *)
    results : Driver.result array;
  }

  let replay a =
    let wseed = a.seed in
    let seed_of key = (derive wseed "replay" * 100) + key in
    (* one fresh session per benchmark, through the batch library path on
       two domains *)
    let prepare ~store =
      let t0 = now () in
      let results =
        Pool.run ~domains:2 (fun pool ->
            Array.mapi (fun key b -> batch ~store ~pool b (seed_of key)) benchmarks)
      in
      let fill_s = now () -. t0 in
      let items = Array.mapi (fun key _ -> item key (seed_of key)) benchmarks in
      let events_of it =
        match Peak_store.Session.load_info ~dir:store ~id:it.L.id with
        | Ok info -> info.Peak_store.Session.info_events
        | Error e -> failwith ("replay fill: " ^ e)
      in
      ( fill_s,
        Printf.sprintf "fill %.3f s (%d sessions) + " fill_s (Array.length items),
        ( store,
          {
            items;
            bytes = Array.map (fun r -> result_bytes (Driver.result_summary r)) results;
            events = Array.map events_of items;
            results;
          } ) )
    in
    let rounds ~phase:_ = shuffled_rounds ~wseed (fun _ _ key -> item key (seed_of key)) in
    (* every replayed result equals the fill's bytes, the daemon replayed
       the whole journal, and no journal grew *)
    let verify (store, fill) ~work:_ ~quality (_ : L.phase) =
      let grown =
        Array.to_list fill.items
        |> List.filteri (fun key (it : L.item) ->
               match Peak_store.Session.load_info ~dir:store ~id:it.L.id with
               | Ok info -> info.Peak_store.Session.info_events <> fill.events.(key)
               | Error _ -> true)
      in
      {
        ok =
          (fun s r ->
            let key = s.L.item.L.key in
            s.L.resumed = fill.events.(key) && result_bytes r = fill.bytes.(key));
        checks =
          [
            Output.check "journals_unchanged" (grown = [])
              (Printf.sprintf "%d of %d journals grew" (List.length grown)
                 (Array.length fill.items));
          ];
        quality =
          (if quality then
             session_quality ~what:"stored sessions, one per benchmark,"
               (Array.to_list fill.results)
           else []);
      }
    in
    let trace_checks tr =
      let ratings = Layers.counter tr "method.ratings"
      and appends = Layers.counter tr "journal.appends" in
      [
        Output.check "replay.no_fresh_ratings" (ratings = 0)
          (Printf.sprintf "%d fresh ratings" ratings);
        Output.check "replay.no_appends" (appends = 0)
          (Printf.sprintf "%d journal appends" appends);
      ]
    in
    run a ~name:"replay" ~prepare ~rounds ~verify ~trace_checks
end

(* ================================================================== *)
(* command line                                                         *)
(* ================================================================== *)

let usage () =
  prerr_endline
    "usage: main.exe --workload suite|fleet|replay --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some seed -> go { a with seed } rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some seconds when seconds > 0.0 -> go { a with seconds } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | _ -> usage ()
  in
  go { workload = ""; seed = 1; seconds = 10.0; trace = false }
    (List.tl (Array.to_list argv))

let () =
  (match Sys.argv with
  | [| _; "--setup-probe"; wseed |] ->
      ignore (Sys.opaque_identity (Suite.inputs (Suite.order ~wseed:(int_of_string wseed))));
      exit 0
  | _ -> ());
  let a = parse Sys.argv in
  let env = Output.env () in
  let run =
    match a.workload with
    | "suite" -> Suite.run
    | "fleet" -> Serve.fleet
    | "replay" -> Serve.replay
    | _ -> usage ()
  in
  if not (Sys.file_exists out) then Unix.mkdir out 0o755;
  let o = run a in
  let finite = List.for_all (fun (m : Output.metric) -> Float.is_finite m.Output.value) o.metrics in
  let checks =
    o.checks
    @ [ Output.check "metrics.finite" finite "every reported metric is a finite number" ]
  in
  let correct = List.for_all (fun c -> c.Output.c_ok) checks in
  let trace = if a.trace then 1 else 0 in
  let header =
    Printf.sprintf "perfbench workload=%s seed=%d seconds=%g trace=%d" a.workload a.seed
      a.seconds trace
  in
  Output.print_human ~header ~env o.metrics checks;
  Output.write_file
    (Filename.concat out (Printf.sprintf "%s-seed%d-trace%d.report.json" a.workload a.seed trace))
    ~args:
      [
        ("workload", Json.String a.workload);
        ("seed", Json.Int a.seed);
        ("seconds", Json.Float a.seconds);
        ("trace", Json.Bool a.trace);
      ]
    ~env ~attempted:o.attempted ~failed:o.failed o.metrics checks;
  print_endline
    (Output.result_line ~correct ~attempted:o.attempted ~failed:o.failed o.metrics);
  if not correct then exit 1
