open Peak_util
open Peak_compiler
open Peak_workload

(* The per-context staleness state machine (see the .mli diagram).
   [Stale] is the transition instant, not a resting state: a verdict
   immediately re-opens exploration, so the resting states are Fresh,
   Suspect and Retuning. *)
type phase = Fresh | Suspect | Retuning

type slot = {
  mutable best : Optconfig.t;
  mutable best_stats : Stats.Welford.t;
  mutable experimental : (Optconfig.t * Stats.Welford.t) option;
  mutable pending : Optconfig.t list;
  mutable ready_at : int;  (** invocation when the next compile lands *)
  mutable swaps : int;
  (* rating-time baseline of the incumbent: frozen when its window first
     fills, refrozen on every swap and after every re-tuning cycle *)
  mutable baseline_mean : float;
  mutable baseline_var : float;
  mutable baseline_n : int;
  (* sliding window of the incumbent's recent production samples *)
  recent : float array;
  mutable recent_n : int;
  mutable phase : phase;
  mutable stale_at : int;  (** invocation of the last stale verdict *)
}

type t = {
  tsec : Tsection.t;
  runner : Runner.t;
  machine : Peak_machine.Machine.t;
  window : int;
  compile_latency : int;
  candidates : Optconfig.t list;
  context_sources : Peak_ir.Expr.source list;
  versions : (Optconfig.t, Version.t) Hashtbl.t;
  slots : (float array, slot) Hashtbl.t;
  (* whole-life ledger: [run] accumulates across calls *)
  mutable now : int;
  mutable total : float;
  mutable o3_total : float;
  mutable oracle_total : float;
  mutable stales : int;
  mutable stale_invocations : int list;  (** reverse order *)
  mutable readapts : int;
  mutable readapt_lag : int;  (** summed time-to-readapt *)
  mutable readapt_invs : int;
  mutable fresh_cycles : float;
  mutable suspect_cycles : float;
  mutable retuning_cycles : float;
  (* every invocation's noise-free cost, for the quantile summary *)
  mutable costs : float array;
  mutable ncosts : int;
}

type stats = {
  invocations : int;
  total_cycles : float;
  o3_cycles : float;
  oracle_cycles : float;
  swaps : int;
  contexts_seen : int;
  choices : (float array * Optconfig.t) list;
  stale_detections : int;
  stale_invocations : int list;
  readapts : int;
  mean_time_to_readapt : float;
  readapt_invocations : int;
  fresh_cycles : float;
  suspect_cycles : float;
  retuning_cycles : float;
  p99_invocation_cycles : float;
}

(* The least relative regression of a recent window against its
   baseline that counts as stale. *)
let stale_threshold = 0.10

let create ?(seed = 17) ?(window = 12) ?(compile_latency = 25) tsec trace machine ~candidates =
  let context_sources =
    match Context_analysis.analyze tsec ~mutated_arrays:trace.Trace.mutated_arrays with
    | Context_analysis.Applicable { sources; _ } -> sources
    | Context_analysis.Not_applicable _ -> []
  in
  {
    tsec;
    runner = Runner.create ~seed tsec trace machine;
    machine;
    window;
    compile_latency;
    candidates;
    context_sources;
    versions = Hashtbl.create 16;
    slots = Hashtbl.create 8;
    now = 0;
    total = 0.0;
    o3_total = 0.0;
    oracle_total = 0.0;
    stales = 0;
    stale_invocations = [];
    readapts = 0;
    readapt_lag = 0;
    readapt_invs = 0;
    fresh_cycles = 0.0;
    suspect_cycles = 0.0;
    retuning_cycles = 0.0;
    costs = Array.make 1024 0.0;
    ncosts = 0;
  }

let version t config =
  match Hashtbl.find_opt t.versions config with
  | Some v -> v
  | None ->
      let v = Version.compile t.machine t.tsec.Tsection.features config in
      Hashtbl.add t.versions config v;
      v

(* [key] is the runner's lent context: a new slot keeps a copy. *)
let slot (t : t) now key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
      let s =
        {
          best = Optconfig.o3;
          best_stats = Stats.Welford.create ();
          experimental = None;
          pending = t.candidates;
          ready_at = now + t.compile_latency;
          swaps = 0;
          baseline_mean = nan;
          baseline_var = nan;
          baseline_n = 0;
          recent = Array.make (max 2 t.window) 0.0;
          recent_n = 0;
          phase = Fresh;
          stale_at = 0;
        }
      in
      Hashtbl.add t.slots (Array.copy key) s;
      s

let freeze_baseline (s : slot) w =
  s.baseline_mean <- Stats.Welford.mean w;
  s.baseline_var <- Stats.Welford.variance w;
  s.baseline_n <- Stats.Welford.count w;
  s.recent_n <- 0

(* Finish a re-tuning cycle: exploration drained, the incumbent's
   fresh-regime rating becomes the new baseline. *)
let finish_retuning (t : t) now (s : slot) =
  s.phase <- Fresh;
  t.readapts <- t.readapts + 1;
  t.readapt_lag <- t.readapt_lag + (now - s.stale_at);
  if Stats.Welford.count s.best_stats >= t.window then freeze_baseline s s.best_stats

(* Decide which version to run under this context, and which statistics
   bucket the measurement belongs to. *)
let choose_for (t : t) now (s : slot) =
  (* launch the next experiment once its compile has landed *)
  (match (s.experimental, s.pending) with
  | None, next :: rest when now >= s.ready_at ->
      s.experimental <- Some (next, Stats.Welford.create ());
      s.pending <- rest
  | _ -> ());
  match s.experimental with
  | Some (config, w)
    when Stats.Welford.count w < t.window
         || Stats.Welford.count s.best_stats < t.window ->
      (* alternate so both versions sample the same context mix *)
      if
        Stats.Welford.count w <= Stats.Welford.count s.best_stats
        && Stats.Welford.count w < t.window
      then `Experimental config
      else `Best
  | Some (config, w) ->
      (* both windows full: swap only on a statistically credible win
         (Welch's test at 97.5% one-sided), so measurement noise does not
         thrash the installed version *)
      let wins =
        Stats.significantly_less
          ~mean1:(Stats.Welford.mean w)
          ~var1:(Stats.Welford.variance w)
          ~n1:(Stats.Welford.count w)
          ~mean2:(Stats.Welford.mean s.best_stats)
          ~var2:(Stats.Welford.variance s.best_stats)
          ~n2:(Stats.Welford.count s.best_stats)
      in
      if wins then begin
        s.best <- config;
        s.best_stats <- w;
        s.swaps <- s.swaps + 1;
        Peak_obs.count "adaptive.swaps";
        freeze_baseline s w
      end;
      s.experimental <- None;
      s.ready_at <- now + t.compile_latency;
      if s.phase = Retuning && s.pending = [] then finish_retuning t now s;
      `Best
  | None ->
      if s.phase = Retuning && s.pending = [] then finish_retuning t now s;
      `Best

(* The staleness check: has the incumbent's recent production window
   credibly regressed against its rating-time baseline?  Significance
   comes from the Welch machinery the consistency experiment is built
   on; a monotone upward trend across the window (Pearson correlation
   of sample against ordinal) counts as confirmation too, so ramps that
   have not yet lifted the whole window past the threshold still
   confirm a Suspect verdict. *)
let window_regressed (s : slot) =
  let n = s.recent_n in
  let m = Stats.mean (Array.sub s.recent 0 n) in
  let v = Stats.variance (Array.sub s.recent 0 n) in
  let credible =
    Stats.significantly_less ~mean1:s.baseline_mean ~var1:s.baseline_var ~n1:s.baseline_n
      ~mean2:m ~var2:v ~n2:n
  in
  let excess = m > s.baseline_mean *. (1.0 +. stale_threshold) in
  let trend =
    lazy
      (let xs = Array.init n float_of_int in
       Regression.pearson xs (Array.sub s.recent 0 n) > 0.6)
  in
  match s.phase with
  | Fresh -> credible && excess
  | Suspect -> (credible && excess) || (excess && Lazy.force trend)
  | Retuning -> false

(* A stale verdict: re-open exploration for this context only.  The
   incumbent keeps serving (and is re-rated from scratch in the new
   regime); every candidate goes back on the compile queue; the other
   contexts are untouched. *)
let go_stale (t : t) now (s : slot) =
  s.phase <- Retuning;
  s.stale_at <- now;
  t.stales <- t.stales + 1;
  t.stale_invocations <- now :: t.stale_invocations;
  s.pending <- t.candidates;
  s.experimental <- None;
  s.ready_at <- now + t.compile_latency;
  s.best_stats <- Stats.Welford.create ();
  s.baseline_n <- 0;
  s.recent_n <- 0;
  Peak_obs.count "adaptive.stale";
  if Peak_obs.active () then
    Peak_obs.instant ~cat:"adaptive"
      ~args:[ ("invocation", string_of_int now) ]
      "adaptive:stale";
  (* nothing to re-explore without candidates: re-baseline in place *)
  if t.candidates = [] then begin
    s.phase <- Fresh;
    t.readapts <- t.readapts + 1
  end

(* Record an incumbent production sample and advance the state machine. *)
let observe_best (t : t) now (s : slot) sample =
  Stats.Welford.add s.best_stats sample;
  if Stats.Welford.count s.best_stats >= t.window && s.baseline_n = 0 then
    freeze_baseline s s.best_stats
  else if s.baseline_n > 0 && s.phase <> Retuning then begin
    s.recent.(s.recent_n) <- sample;
    s.recent_n <- s.recent_n + 1;
    if s.recent_n >= Array.length s.recent then begin
      let regressed = window_regressed s in
      (match (s.phase, regressed) with
      | Fresh, true -> s.phase <- Suspect
      | Suspect, true -> go_stale t now s
      | Suspect, false -> s.phase <- Fresh
      | (Fresh | Retuning), _ -> ());
      s.recent_n <- 0
    end
  end

let run (t : t) ~invocations =
  let o3_version = version t Optconfig.o3 in
  let all_versions = o3_version :: List.map (version t) t.candidates in
  let stop = t.now + invocations in
  while t.now < stop do
    let now = t.now in
    let bucket = ref `Best in
    let chosen_slot = ref None in
    let chosen_version = ref o3_version in
    let time =
      Runner.step_choose ~context:t.context_sources t.runner (fun key ->
          let s = slot t now key in
          chosen_slot := Some s;
          let choice = choose_for t now s in
          bucket := choice;
          let config = match choice with `Best -> s.best | `Experimental c -> c in
          let v = version t config in
          chosen_version := v;
          v)
    in
    (* record the (noisy) measurement in the right bucket *)
    (match (!chosen_slot, !bucket) with
    | Some s, `Best -> observe_best t now s time
    | Some s, `Experimental _ -> (
        match s.experimental with
        | Some (_, w) -> Stats.Welford.add w time
        | None -> ())
    | None, _ -> ());
    (* noise-free accounting for the comparison *)
    let counts = Runner.counts t.runner in
    let cycles v = Version.invocation_cycles v ~counts in
    let spent = cycles !chosen_version in
    if t.ncosts = Array.length t.costs then begin
      let grown = Array.make (2 * t.ncosts) 0.0 in
      Array.blit t.costs 0 grown 0 t.ncosts;
      t.costs <- grown
    end;
    t.costs.(t.ncosts) <- spent;
    t.ncosts <- t.ncosts + 1;
    t.total <- t.total +. spent;
    t.o3_total <- t.o3_total +. cycles o3_version;
    t.oracle_total <-
      t.oracle_total
      +. List.fold_left (fun acc v -> Float.min acc (cycles v)) infinity all_versions;
    (match !chosen_slot with
    | Some s -> (
        match s.phase with
        | Fresh -> t.fresh_cycles <- t.fresh_cycles +. spent
        | Suspect -> t.suspect_cycles <- t.suspect_cycles +. spent
        | Retuning ->
            t.retuning_cycles <- t.retuning_cycles +. spent;
            t.readapt_invs <- t.readapt_invs + 1;
            Peak_obs.count "adaptive.readapt_invocations")
    | None -> t.fresh_cycles <- t.fresh_cycles +. spent);
    t.now <- t.now + 1
  done;
  let swaps = Hashtbl.fold (fun _ (s : slot) acc -> acc + s.swaps) t.slots 0 in
  let choices = Hashtbl.fold (fun key (s : slot) acc -> (key, s.best) :: acc) t.slots [] in
  {
    invocations = t.now;
    total_cycles = t.total;
    o3_cycles = t.o3_total;
    oracle_cycles = t.oracle_total;
    swaps;
    contexts_seen = Hashtbl.length t.slots;
    choices;
    stale_detections = t.stales;
    stale_invocations = List.rev t.stale_invocations;
    readapts = t.readapts;
    mean_time_to_readapt =
      (if t.readapts = 0 then nan else float_of_int t.readapt_lag /. float_of_int t.readapts);
    readapt_invocations = t.readapt_invs;
    fresh_cycles = t.fresh_cycles;
    suspect_cycles = t.suspect_cycles;
    retuning_cycles = t.retuning_cycles;
    p99_invocation_cycles =
      (if t.ncosts = 0 then nan
       else begin
         let sorted = Array.sub t.costs 0 t.ncosts in
         Array.sort compare sorted;
         sorted.(min (t.ncosts - 1) (int_of_float (Float.of_int t.ncosts *. 0.99)))
       end);
  }
