open Peak_machine
open Peak_compiler
open Peak_workload

type result = {
  benchmark : Benchmark.t;
  machine : Machine.t;
  dataset : Trace.dataset;
  method_used : Method.t;
  attempts : Method.attempt list;
  strategy : Strategy.t;
  stages : Strategy.stage list;
  best_config : Optconfig.t;
  search_stats : Search.stats;
  tuning_cycles : float;
  tuning_seconds : float;
  passes : int;
  invocations : int;
  quarantined : (Optconfig.t * string) list;
  fault_retries : int;
  metrics : Peak_store.Codec.metrics;
  profile : Profile.t;
  advice : Consultant.advice;
}

let non_ts_cycles_of (benchmark : Benchmark.t) (profile : Profile.t) =
  let share = benchmark.Benchmark.time_share in
  profile.Profile.ts_pass_cycles *. (1.0 -. share) /. share

let auto_method profile tsec = (Consultant.advise tsec profile).Consultant.chosen

let result_summary (r : result) : Peak_store.Codec.session_result =
  {
    Peak_store.Codec.r_method = Method.name r.method_used;
    r_attempts =
      List.map
        (fun (a : Method.attempt) ->
          {
            Peak_store.Codec.at_method = Method.name a.Method.a_method;
            at_converged = a.Method.a_converged;
            at_ratings = a.Method.a_ratings;
          })
        r.attempts;
    r_strategy = Strategy.key r.strategy;
    r_stages =
      List.map
        (fun (s : Strategy.stage) ->
          {
            Peak_store.Codec.st_label = s.Strategy.sg_label;
            st_ratings = s.Strategy.sg_ratings;
            st_flags = s.Strategy.sg_flags;
          })
        r.stages;
    r_best = r.best_config;
    r_ratings = r.search_stats.Search.ratings;
    r_iterations = r.search_stats.Search.iterations;
    r_trajectory = r.search_stats.Search.trajectory;
    r_tuning_cycles = r.tuning_cycles;
    r_tuning_seconds = r.tuning_seconds;
    r_passes = r.passes;
    r_invocations = r.invocations;
    r_quarantined = r.quarantined;
    r_retries = r.fault_retries;
    r_metrics = Some r.metrics;
  }

let session_meta ?method_ ?(strategy = Strategy.Ie) ?(rating_params = Rating.default_params)
    ?(threshold = 0.005) ?(seed = 11) ?(start = Optconfig.o3) ?faults (benchmark : Benchmark.t)
    machine dataset : Peak_store.Codec.session_meta =
  let method_str = match method_ with Some m -> Method.key m | None -> "auto" in
  let bench_name = benchmark.Benchmark.name in
  let machine_name = machine.Machine.name in
  let dataset_name = Trace.dataset_name dataset in
  let search = Strategy.key strategy in
  {
    Peak_store.Codec.m_id =
      Peak_store.Session.id_for ~benchmark:bench_name ~machine:machine_name
        ~dataset:dataset_name ~search ~method_:method_str ~seed;
    m_benchmark = bench_name;
    m_machine = machine_name;
    m_dataset = dataset_name;
    m_search = search;
    m_seed = seed;
    m_threshold = threshold;
    m_params = Rating.params_signature rating_params;
    m_method = method_str;
    m_start = start;
    m_faults = (match faults with Some p -> Peak_sim.Fault.to_string p | None -> "-");
  }

type session_args = {
  sa_benchmark : Benchmark.t;
  sa_machine : Machine.t;
  sa_dataset : Trace.dataset;
  sa_strategy : Strategy.t;
  sa_method : Method.t option;
  sa_params : Rating.params;
  sa_threshold : float;
  sa_seed : int;
  sa_start : Optconfig.t;
  sa_faults : Peak_sim.Fault.t option;
}

let session_args (m : Peak_store.Codec.session_meta) =
  let ( let* ) = Result.bind in
  let* sa_benchmark = Registry.of_string m.Peak_store.Codec.m_benchmark in
  let* sa_machine = Machine.of_string m.Peak_store.Codec.m_machine in
  let* sa_dataset = Trace.dataset_of_string m.Peak_store.Codec.m_dataset in
  let* sa_strategy = Strategy.of_string m.Peak_store.Codec.m_search in
  let* sa_method = Method.request_of_string m.Peak_store.Codec.m_method in
  let* sa_params =
    Option.to_result
      ~none:("session has unreadable rating parameters: " ^ m.Peak_store.Codec.m_params)
      (Rating.params_of_signature m.Peak_store.Codec.m_params)
  in
  (* a fault-injected session resumes under the same plan, rebuilt from
     its stored spec — the quarantine decisions then replay *)
  let* sa_faults =
    match m.Peak_store.Codec.m_faults with
    | "-" -> Ok None
    | spec -> (
        match Peak_sim.Fault.of_string spec with
        | Ok plan -> Ok (Some plan)
        | Error e -> Error ("session has an unreadable fault plan: " ^ e))
  in
  Ok
    {
      sa_benchmark;
      sa_machine;
      sa_dataset;
      sa_strategy;
      sa_method;
      sa_params;
      sa_threshold = m.Peak_store.Codec.m_threshold;
      sa_seed = m.Peak_store.Codec.m_seed;
      sa_start = m.Peak_store.Codec.m_start;
      sa_faults;
    }

(* ------------------------------------------------------------------ *)
(* The rating engine                                                   *)
(* ------------------------------------------------------------------ *)

(* Every rating is a job on its own runner, seeded from (seed, idx,
   config[, base]) and never from which domain ran it or what was rated
   before it.  A batch of jobs runs concurrently, and each outcome is
   then folded into the session in submission order: the compile stall
   its version waited for, the store journal, the tuning-time ledger,
   the progress callback and the quarantine record.  So every domain
   count, and a killed-and-resumed store session, produces the same
   bits. *)

(* A job's outcome, in the exact shape the store journals: eval,
   convergence flag, consumption (invocations, passes, cycles), fail
   reason and retries used — a replayed job is indistinguishable from a
   fresh one. *)
type outcome = float * bool * (int * int * float) * string option * int

type env = {
  benchmark : Benchmark.t;
  machine : Machine.t;
  dataset : Trace.dataset;
  seed : int;
  tsec : Tsection.t;
  (* the session's invocation tape: every rating runner reads it *)
  tape : Tape.t;
  faults : Peak_sim.Fault.t option;
  retries : int;
  pool : Peak_util.Pool.t option;
  store : Peak_store.Session.t option;
  progress : (ratings:int -> fresh:int -> unit) option;
  optimizer : Optimizer.t option;
  versions : (Optconfig.t, Version.t) Hashtbl.t;
  tune_span : int;
  (* rating spans begun on pool domains attach to the phase that
     submitted their batch; written only between batches *)
  mutable span_parent : int;
  mutable oracle : int64 option;
  (* the ledger, folded in submission order; [cycles] is the TS side:
     executions, overheads and compile stalls *)
  mutable cycles : float;
  mutable invocations : int;
  tally : (string, int * int) Hashtbl.t; (* method -> ratings, invocations *)
  mutable ratings_done : int;
  mutable fresh_done : int;
  quarantine_tbl : (string, unit) Hashtbl.t;
  mutable quarantined : (Optconfig.t * string) list;
  mutable retries_used : int;
}

let version env config =
  match Hashtbl.find_opt env.versions config with
  | Some v -> v
  | None ->
      let v = Version.compile env.machine env.tsec.Tsection.features config in
      Hashtbl.add env.versions config v;
      v

(* The Remote Optimizer of Figure 6: strategies prefetch each
   iteration's candidates, and a version must be compiled before its
   rating starts.  The stall is charged at the job's fold position, with
   the ledger clock advanced by every earlier job — Local blocks for the
   whole compile, Remote only for what is left of it. *)
let prefetch env configs =
  Option.iter
    (fun opt -> List.iter (fun c -> Optimizer.request opt ~now:env.cycles c) configs)
    env.optimizer

let await_compiled env config =
  Option.iter
    (fun opt -> env.cycles <- env.cycles +. Optimizer.stall_for opt ~now:env.cycles config)
    env.optimizer

let charge env (inv, _passes, cyc) =
  env.invocations <- env.invocations + inv;
  env.cycles <- env.cycles +. cyc

(* Store keys: a relative rating is keyed on its base's digest, an
   absolute one on "-". *)
let store_base_key env base =
  match env.store with None -> "-" | Some _ -> Optconfig.digest base

let store_find env ~mname ~base ~idx config : outcome option =
  Option.bind env.store (fun s ->
      Peak_store.Session.find s ~method_:mname ~base ~idx config
      |> Option.map (fun (e, conv, (u : Peak_store.Codec.consumption), fail, retries) ->
             (e, conv, (u.Peak_store.Codec.c_invocations, u.c_passes, u.c_cycles), fail, retries)))

(* Fold one outcome at its submission position.  [fresh] produces the
   outcome when the store has none; it is journaled before the ledger
   moves, so the journal is consistent at every progress callback (which
   may raise to abort the session). *)
let settle env ~mname ~base ~idx config (stored : outcome option) (fresh : unit -> outcome) =
  await_compiled env config;
  let ((_, _, used, _, _) as hit) =
    match stored with
    | Some hit -> hit
    | None ->
        let ((eval, converged, (inv, p, cyc), fail, job_retries) as hit) = fresh () in
        Option.iter
          (fun s ->
            Peak_store.Session.record s ~method_:mname ~base ~idx ~config ~eval ~converged ?fail
              ~retries:job_retries
              ~used:{ Peak_store.Codec.c_invocations = inv; c_passes = p; c_cycles = cyc }
              ())
          env.store;
        hit
  in
  charge env used;
  let inv, _, _ = used in
  let r, i = Option.value ~default:(0, 0) (Hashtbl.find_opt env.tally mname) in
  Hashtbl.replace env.tally mname (r + 1, i + inv);
  env.ratings_done <- env.ratings_done + 1;
  if Option.is_none stored then env.fresh_done <- env.fresh_done + 1;
  Option.iter (fun f -> f ~ratings:env.ratings_done ~fresh:env.fresh_done) env.progress;
  hit

let note_outcome env config (_, _, _, fail, job_retries) =
  env.retries_used <- env.retries_used + job_retries;
  if job_retries > 0 then Peak_obs.count ~n:job_retries "driver.fault_retries";
  match fail with
  | None -> ()
  | Some reason ->
      let d = Optconfig.digest config in
      if not (Hashtbl.mem env.quarantine_tbl d) then begin
        Hashtbl.add env.quarantine_tbl d ();
        Peak_obs.count "driver.quarantined";
        env.quarantined <- (config, reason) :: env.quarantined
      end

let job_seed env ?(base_hash = 0) ~idx config =
  env.seed + ((idx + 2) * 1_000_003) + (Optconfig.hash config * 8191) + (base_hash * 131)

let fresh_runner env ?fault_attempt jseed =
  Runner.of_tape ~seed:jseed ?faults:env.faults ?fault_attempt env.tape env.machine

let consumption r =
  (Runner.invocations_consumed r, Runner.passes_started r, Runner.tuning_cycles r)

(* Fault tolerance: the start configuration is protected and its output
   digest anchors the differential oracle; every other configuration is
   validated against it before it is rated, and crash/hang/transient
   failures are retried on fresh runners — the attempt ordinal redraws
   the plan's transient decisions — up to [retries] times.  A config
   still failing, or producing wrong output, is quarantined: its eval is
   [+infinity], so elimination searches never adopt it and FF filters it
   out of its effect estimates.  Every decision is keyed on config
   identity and attempt ordinal, never on draw order. *)
let check_oracle env plan start =
  Peak_obs.with_span ~parent:env.tune_span ~cat:"phase.oracle" "oracle" @@ fun _ ->
  Peak_sim.Fault.protect plan (Optconfig.digest start);
  await_compiled env start;
  let r = fresh_runner env (job_seed env ~idx:(-2) start) in
  let d = Runner.output_digest r (version env start) in
  charge env (consumption r);
  env.oracle <- Some d

(* Rating span names are deterministic — method, config digest, attempt
   ordinal — so the traces of two runs of the same session differ only
   in timestamps.  Untraced, a rating builds no name: the tracer then
   costs one branch and no allocation. *)
let rate_span_name ~mname (v : Version.t) attempt =
  if Peak_obs.active () then
    Printf.sprintf "rate:%s:%s:a%d" mname (Optconfig.digest v.Version.config) attempt
  else ""

let run_rated env ~mname ~jseed (v : Version.t) rate_fn : outcome =
  match env.faults with
  | None ->
      Peak_obs.with_span ~parent:env.span_parent ~cat:"rate" (rate_span_name ~mname v 0)
      @@ fun _ ->
      let r = fresh_runner env jseed in
      let rating = rate_fn r in
      (rating.Rating.eval, rating.Rating.converged, consumption r, None, 0)
  | Some _ ->
      let sum (i1, p1, c1) (i2, p2, c2) = (i1 + i2, p1 + p2, c1 +. c2) in
      let rec go attempt used =
        let sid =
          Peak_obs.begin_span ~parent:env.span_parent ~cat:"rate"
            (rate_span_name ~mname v attempt)
        in
        let r = fresh_runner env ~fault_attempt:attempt jseed in
        let outcome =
          match
            match env.oracle with
            | Some d when not (Int64.equal (Runner.output_digest r v) d) -> `Wrong
            | _ -> `Rated (rate_fn r)
          with
          | o -> o
          | exception Runner.Failed { failure; _ } -> `Failed failure
        in
        let used = sum used (consumption r) in
        match outcome with
        | `Rated rating ->
            Peak_obs.end_span ~args:[ ("outcome", "rated") ] sid;
            (rating.Rating.eval, rating.Rating.converged, used, None, attempt)
        | `Wrong ->
            Peak_obs.end_span ~args:[ ("outcome", "wrong-output") ] sid;
            (infinity, true, used, Some "wrong-output", attempt)
        | `Failed failure ->
            let reason = match failure with Runner.Crashed -> "crashed" | Runner.Hung -> "hung" in
            if attempt >= env.retries then begin
              Peak_obs.end_span ~args:[ ("outcome", reason) ] sid;
              (infinity, true, used, Some reason, attempt)
            end
            else begin
              Peak_obs.end_span ~args:[ ("outcome", reason ^ ":retry") ] sid;
              go (attempt + 1) used
            end
      in
      go 0 (0, 0, 0.0)

(* Rate [(idx, config)] jobs against store key [base].  Stored outcomes
   replay; the rest run on Pool.map (List.map without a pool), their
   versions compiled caller-side since the versions table is not shared
   across domains.  Returns the evals in submission order. *)
let rate_batch env ~mname ~base ?base_hash rate idxed =
  let work = List.map (fun (idx, c) -> (idx, c, store_find env ~mname ~base ~idx c)) idxed in
  let jobs =
    List.filter_map
      (fun (idx, c, stored) -> if Option.is_none stored then Some (idx, version env c) else None)
      work
  in
  let run (idx, (v : Version.t)) =
    run_rated env ~mname ~jseed:(job_seed env ?base_hash ~idx v.Version.config) v (rate v)
  in
  let fresh =
    ref (match env.pool with Some p -> Peak_util.Pool.map p run jobs | None -> List.map run jobs)
  in
  let take () =
    match !fresh with
    | hit :: rest ->
        fresh := rest;
        hit
    | [] -> assert false
  in
  List.map
    (fun (idx, c, stored) ->
      let ((e, _, _, _, _) as hit) = settle env ~mname ~base ~idx c stored take in
      note_outcome env c hit;
      e)
    work

(* The search's rating hooks for a prepared method.  Absolute evals are
   cached per configuration (a duplicate keeps its first occurrence), so
   a batch dispatches only what is missing; relative ratings are always
   fresh against the batch's base. *)
let rating_hooks env prepared eval_cache mname : Search.relative * Search.rate_many =
  let rate_many : Search.rate_many =
    match prepared with
    | Method.Absolute rate ->
        fun ~base candidates ->
          let seen = Hashtbl.create 8 in
          let missing =
            List.filter
              (fun (_, c) ->
                let fresh = not (Hashtbl.mem eval_cache c || Hashtbl.mem seen c) in
                if fresh then Hashtbl.add seen c ();
                fresh)
              ((-1, base) :: List.mapi (fun i c -> (i, c)) candidates)
          in
          let evals = rate_batch env ~mname ~base:"-" (fun v r -> rate r v) missing in
          List.iter2 (fun (_, c) e -> Hashtbl.replace eval_cache c e) missing evals;
          let eval_base = Hashtbl.find eval_cache base in
          List.map (fun c -> Hashtbl.find eval_cache c /. eval_base) candidates
    | Method.Relative rate ->
        fun ~base candidates ->
          let vb = version env base in
          (* every job of the batch runs the base version too *)
          await_compiled env base;
          rate_batch env ~mname ~base:(store_base_key env base) ~base_hash:(Optconfig.hash base)
            (fun v r -> rate r ~base:vb v)
            (List.mapi (fun i c -> (i, c)) candidates)
  in
  ((fun ~base c -> List.hd (rate_many ~base [ c ])), rate_many)

(* ------------------------------------------------------------------ *)
(* Phase: profile                                                      *)
(* ------------------------------------------------------------------ *)

(* One pass over the tuning trace under -O3 gathers what the consultant
   and the raters need (§3's profile run). *)
let profile ~tune_span ~seed tsec trace machine =
  Peak_obs.with_span ~parent:tune_span ~cat:"phase.profile" "profile" (fun _ ->
      Profile.run ~seed:(seed + 1) tsec trace machine)

(* ------------------------------------------------------------------ *)
(* Phase: resolve the rating method (§3 fallback)                      *)
(* ------------------------------------------------------------------ *)

(* "If the system cannot achieve enough accuracy ... within some number
   of invocations, it switches to the next applicable rating method."
   Each absolute method but the chain's last is probed by rating the
   start configuration once; a non-converged (or sample-less) probe
   abandons it.  The probe is exactly the search's base rating — same
   seed, same store key, same fold position — so a converged probe is
   cached and the committed run is bit-identical to forcing that method.
   Probes are journaled with their convergence flag, so a resumed
   session replays every fallback decision. *)
let probe env eval_cache mname rate start =
  let fresh () =
    let v = version env start in
    let r = fresh_runner env (job_seed env ~idx:(-1) start) in
    (* with faults the probe consumes the same oracle-check invocation a
       regular job does ([start] is protected — the check cannot fail) *)
    match
      if Option.is_some env.faults then ignore (Runner.output_digest r v);
      rate r v
    with
    | rating -> (rating.Rating.eval, rating.Rating.converged, consumption r, None, 0)
    | exception Rating.No_samples _ ->
        (* journaled as an infinite-eval sentinel with a reason, never
           as NaN: codec v4 rejects NaN ratings, and a replayed probe
           only consults the convergence flag *)
        (infinity, false, consumption r, Some "no-samples", 0)
  in
  let stored = store_find env ~mname ~base:"-" ~idx:(-1) start in
  let eval, converged, _, _, _ = settle env ~mname ~base:"-" ~idx:(-1) start stored fresh in
  if converged then Hashtbl.replace eval_cache start eval;
  converged

(* [method_] forces a single-entry chain, never probed; omitted means
   "auto": the consultant's applicable chain.  Returns the committed
   method, its prepared rater, its eval cache (holding a converged
   probe) and the abandoned attempts in order. *)
let resolve_method env ~params ~non_ts ?method_ ~start profile (advice : Consultant.advice) =
  let chain = match method_ with Some m -> [ m ] | None -> advice.Consultant.applicable in
  let rec select failed = function
    | [] ->
        raise
          (Method.Not_applicable
             (Printf.sprintf "Driver.tune: no applicable rating method for %s"
                env.benchmark.Benchmark.name))
    | m :: rest ->
        let prepared = Method.prepare ~params ~non_ts_cycles:non_ts m profile in
        let eval_cache = Hashtbl.create 64 in
        let committed =
          match prepared with
          | _ when rest = [] -> true
          | Method.Relative _ -> true
          | Method.Absolute rate ->
              let pid =
                Peak_obs.begin_span ~parent:env.tune_span ~cat:"probe" ("probe:" ^ Method.name m)
              in
              let ok = probe env eval_cache (Method.name m) rate start in
              Peak_obs.end_span ~args:[ ("outcome", if ok then "commit" else "abandon") ] pid;
              ok
        in
        if committed then (m, prepared, eval_cache, List.rev failed)
        else select ({ Method.a_method = m; a_converged = false; a_ratings = 1 } :: failed) rest
  in
  select [] chain

(* ------------------------------------------------------------------ *)
(* Phase: search                                                       *)
(* ------------------------------------------------------------------ *)

(* Staged screening trains on the store's rating index, restricted to
   this benchmark/machine in the index's sorted order.  The index is
   rewritten only by [Session.gc], never by live rating, so a resumed
   session reads the identical corpus.  The knowledge base's rows for
   this program join after it: a KB row's 1/speedup is the config's
   relative time vs its donor session's start, the scale of an index
   eval. *)
let staged_corpus env ?kb () =
  let bench_name = env.benchmark.Benchmark.name in
  let machine_name = env.machine.Machine.name in
  let index_rows =
    match env.store with
    | None -> []
    | Some session -> (
        let path = Filename.concat (Peak_store.Session.store_dir session) "index.json" in
        match Peak_store.Index.load path with
        | Error _ -> []
        | Ok index ->
            List.rev
              (Peak_store.Index.fold
                 (fun (e : Peak_store.Index.entry) acc ->
                   let k = e.Peak_store.Index.key in
                   if k.Peak_store.Index.k_benchmark = bench_name
                      && k.Peak_store.Index.k_machine = machine_name
                   then (e.Peak_store.Index.config, e.Peak_store.Index.eval) :: acc
                   else acc)
                 index []))
  in
  let kb_rows =
    match kb with
    | None -> []
    | Some kb ->
        let b = String.lowercase_ascii bench_name and m = String.lowercase_ascii machine_name in
        List.filter_map
          (fun (r : Peak_store.Kb.row) ->
            if r.Peak_store.Kb.rw_benchmark = b && r.Peak_store.Kb.rw_machine = m then
              Some (r.Peak_store.Kb.rw_config, 1.0 /. r.Peak_store.Kb.rw_speedup)
            else None)
          (Peak_store.Kb.rows kb)
  in
  index_rows @ kb_rows

let search env ~strategy ~threshold ~corpus (relative, rate_many) start =
  let key = Strategy.key strategy in
  if corpus <> [] then Peak_obs.count ~n:(List.length corpus) ("search." ^ key ^ ".corpus");
  let sid = Peak_obs.begin_span ~parent:env.tune_span ~cat:"phase.search" ("search:" ^ key) in
  env.span_parent <- sid;
  Fun.protect
    ~finally:(fun () ->
      env.span_parent <- env.tune_span;
      Peak_obs.end_span sid)
  @@ fun () ->
  (* each stage gets its own span under the search span; rating spans
     begun inside the stage attach to it *)
  let stage_span = ref None in
  let enter_stage k label =
    let s =
      Peak_obs.begin_span ~parent:sid ~cat:"phase.search.stage"
        (Printf.sprintf "search:%s:stage%d" key k)
    in
    Peak_obs.count (Printf.sprintf "search.%s.%s" key label);
    stage_span := Some s;
    env.span_parent <- s
  in
  let leave_stage () =
    Option.iter Peak_obs.end_span !stage_span;
    stage_span := None;
    env.span_parent <- sid
  in
  Strategy.run strategy
    (Strategy.make_ctx ~threshold ~seed:env.seed ~prepare:(prefetch env) ~rate_many ~corpus
       ~enter_stage ~leave_stage ~relative ())
    start

(* ------------------------------------------------------------------ *)
(* Phase: summarize                                                    *)
(* ------------------------------------------------------------------ *)

(* The paper rates many versions inside one program run, so the ledger
   charges the ratings as if they ran back to back: ⌈Σ invocations ÷
   trace length⌉ program runs, each paying the program's non-TS time. *)
let summarize env ~profile ~advice ~non_ts ~trace_length ~strategy ~method_ ~failed
    (best_config, search_stats, stages) =
  let passes = (env.invocations + trace_length - 1) / trace_length in
  let tuning_cycles = env.cycles +. (float_of_int passes *. non_ts) in
  let quarantined = List.rev env.quarantined in
  let metrics =
    {
      Peak_store.Codec.x_methods =
        List.filter_map
          (fun m ->
            let n = Method.name m in
            Option.map
              (fun (ratings, inv) ->
                { Peak_store.Codec.mm_method = n; mm_ratings = ratings; mm_invocations = inv })
              (Hashtbl.find_opt env.tally n))
          Method.all;
      x_quarantined = List.length quarantined;
      x_retries = env.retries_used;
      x_invocations = env.invocations;
      x_cycles = tuning_cycles;
    }
  in
  let committed =
    { Method.a_method = method_; a_converged = true; a_ratings = search_stats.Search.ratings }
  in
  {
    benchmark = env.benchmark;
    machine = env.machine;
    dataset = env.dataset;
    method_used = method_;
    attempts = failed @ [ committed ];
    strategy;
    stages;
    best_config;
    search_stats;
    tuning_cycles;
    tuning_seconds = Machine.seconds_of_cycles env.machine tuning_cycles;
    passes;
    invocations = env.invocations;
    quarantined;
    fault_retries = env.retries_used;
    metrics;
    profile;
    advice;
  }

let tune ?(seed = 11) ?(strategy = Strategy.Ie) ?(rating_params = Rating.default_params)
    ?(threshold = 0.005) ?compile ?pool ?method_ ?store ?start ?kb ?faults ?(retries = 2)
    ?progress (benchmark : Benchmark.t) machine dataset =
  if retries < 0 then invalid_arg "Driver.tune: retries must be >= 0";
  (* Tracing is observational only: nothing below reads the tracer
     back, so a traced run computes bit-identical results. *)
  let tune_span =
    Peak_obs.begin_span ~cat:"tune"
      (Printf.sprintf "tune:%s:%s:%s" benchmark.Benchmark.name machine.Machine.name
         (Trace.dataset_name dataset))
  in
  Fun.protect ~finally:(fun () -> Peak_obs.end_span tune_span) @@ fun () ->
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace dataset ~seed in
  let profile = profile ~tune_span ~seed tsec trace machine in
  let advice = Consultant.advise tsec profile in
  let non_ts = non_ts_cycles_of benchmark profile in
  (* The profile pass consumed [trace] (a trace is a single-use
     generator), so the ratings' tape builds a fresh one — on its first
     extension, which a fully replayed session never reaches. *)
  let tape =
    Tape.shared tsec ~name:trace.Trace.name ~length:trace.Trace.length (fun () ->
        benchmark.Benchmark.trace dataset ~seed)
  in
  let env =
    {
      benchmark;
      machine;
      dataset;
      seed;
      tsec;
      tape;
      faults;
      retries;
      pool;
      store;
      progress;
      optimizer =
        Option.map
          (fun (mode, seconds) -> Optimizer.create ~compile_seconds:seconds mode machine)
          compile;
      versions = Hashtbl.create 64;
      tune_span;
      span_parent = tune_span;
      oracle = None;
      cycles = 0.0;
      invocations = 0;
      tally = Hashtbl.create 4;
      ratings_done = 0;
      fresh_done = 0;
      quarantine_tbl = Hashtbl.create 8;
      quarantined = [];
      retries_used = 0;
    }
  in
  (* An explicit [start] wins; then a store session's recorded start (a
     resumed session continues from its original one); then the
     knowledge base's top recommendation; -O3 otherwise.  A store-backed
     caller records a KB start in the session meta, so a resume never
     depends on re-supplying the KB. *)
  let start =
    match (start, store) with
    | Some s, _ -> s
    | None, Some session -> (Peak_store.Session.meta session).Peak_store.Codec.m_start
    | None, None -> (
        match Option.bind kb (fun kb -> Knowledge.start kb benchmark machine) with
        | Some r -> r.Peak_store.Kb.rec_config
        | None -> Optconfig.o3)
  in
  Option.iter (fun plan -> check_oracle env plan start) faults;
  let method_, prepared, eval_cache, failed =
    resolve_method env ~params:rating_params ~non_ts ?method_ ~start profile advice
  in
  let corpus = match strategy with Strategy.Staged -> staged_corpus env ?kb () | _ -> [] in
  let outcome =
    search env ~strategy ~threshold ~corpus
      (rating_hooks env prepared eval_cache (Method.name method_))
      start
  in
  Peak_obs.count ~n:(Tape.recorded tape) "tape.recorded";
  Peak_obs.count ~n:(Tape.interpreted tape) "tape.interpreted";
  let result =
    summarize env ~profile ~advice ~non_ts ~trace_length:(Tape.length tape) ~strategy ~method_
      ~failed outcome
  in
  Option.iter (fun s -> Peak_store.Session.complete s (result_summary result)) store;
  result

let tune_suite ?(seed = 11) ?strategy ?rating_params ?threshold ?method_ ?(domains = 1)
    ?store_dir ?faults ?retries benchmarks machine dataset =
  (* Each benchmark gets its own session (own journal file); the journal
     writers are mutex-serialized, so concurrent domain runners log
     safely through them. *)
  let open_session benchmark =
    Option.map
      (fun dir ->
        let meta =
          session_meta ?method_ ?strategy ?rating_params ?threshold ~seed ?faults benchmark
            machine dataset
        in
        match Peak_store.Session.open_ ~dir ~meta () with
        | Ok s -> s
        | Error e -> failwith ("tuning store: " ^ e))
      store_dir
  in
  Peak_obs.with_span ~cat:"suite"
    (Printf.sprintf "suite:%d-benchmarks:j%d" (List.length benchmarks) domains)
  @@ fun _ ->
  Peak_util.Pool.run ~domains (fun pool ->
      Peak_util.Pool.map pool
        (fun benchmark ->
          let store = open_session benchmark in
          Fun.protect
            ~finally:(fun () -> Option.iter Peak_store.Session.close store)
            (fun () ->
              tune ~seed ?strategy ?rating_params ?threshold ~pool ?method_ ?store ?faults
                ?retries benchmark machine dataset))
        benchmarks)

(* ------------------------------------------------------------------ *)
(* Evaluation by Eq. 1                                                 *)
(* ------------------------------------------------------------------ *)

(* A noise-free pass (σ = 0, no spikes, no context switches, no memory
   jitter) times a version at exactly Σ_i (counts_i · c(v) + mem_i), and
   neither counts_i nor mem_i depends on the version.  So one
   interpretation of the pass prices every configuration:
   T(v) = C·c(v) + M. *)
type pass_summary = {
  ps_benchmark : Benchmark.t;
  ps_machine : Machine.t;  (* the noise-free copy versions compile for *)
  ps_features : Peak_ir.Features.ts;
  ps_counts : int array;  (* C *)
  ps_mem : float;  (* M *)
  ps_o3 : float;  (* -O3's section time: the non-TS time derives from it *)
}

let section_cycles ~machine ~features ~counts ~mem config =
  Version.invocation_cycles (Version.compile machine features config) ~counts +. mem

let pass_summary ?(seed = 5) (benchmark : Benchmark.t) machine dataset =
  let machine = { machine with Machine.noise_sigma = 0.0; spike_probability = 0.0 } in
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace dataset ~seed in
  let runner = Runner.create ~seed ~context_switch_rate:0.0 tsec trace machine in
  let counts, mem = Runner.pass_terms runner in
  let features = tsec.Tsection.features in
  {
    ps_benchmark = benchmark;
    ps_machine = machine;
    ps_features = features;
    ps_counts = counts;
    ps_mem = mem;
    ps_o3 = section_cycles ~machine ~features ~counts ~mem Optconfig.o3;
  }

let summary_section_cycles s config =
  if Optconfig.equal config Optconfig.o3 then s.ps_o3
  else
    section_cycles ~machine:s.ps_machine ~features:s.ps_features ~counts:s.ps_counts
      ~mem:s.ps_mem config

(* The TS time plus the program's non-TS time, which no configuration
   changes (only the TS is re-optimized). *)
let summary_program_cycles s config =
  let share = s.ps_benchmark.Benchmark.time_share in
  summary_section_cycles s config +. (s.ps_o3 *. (1.0 -. share) /. share)

let summary_improvement_pct s ~best =
  let t_best = summary_program_cycles s best in
  let t_o3 = summary_program_cycles s Optconfig.o3 in
  ((t_o3 /. t_best) -. 1.0) *. 100.0

let evaluate_program_cycles ?seed benchmark machine config dataset =
  summary_program_cycles (pass_summary ?seed benchmark machine dataset) config

let improvement_pct ?seed benchmark machine ~best dataset =
  summary_improvement_pct (pass_summary ?seed benchmark machine dataset) ~best
