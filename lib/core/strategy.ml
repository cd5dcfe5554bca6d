(* The search-strategy layer: one registry of staged search plans shared
   by the driver, CLI, store, service and bench.  See strategy.mli for
   the contract. *)

open Peak_compiler

type t = Ie | Be | Ce | Random of int | Ff | Ose | Staged

let all = [ Ie; Be; Ce; Random 100; Ff; Ose; Staged ]

let name = function
  | Ie -> "Iterative Elimination"
  | Be -> "Batch Elimination"
  | Ce -> "Combined Elimination"
  | Random n -> Printf.sprintf "Random (%d)" n
  | Ff -> "Fractional Factorial"
  | Ose -> "Opt-Space Exploration"
  | Staged -> "Staged (learned)"

let key = function
  | Ie -> "ie"
  | Be -> "be"
  | Ce -> "ce"
  | Random n -> Printf.sprintf "random%d" n
  | Ff -> "ff"
  | Ose -> "ose"
  | Staged -> "staged"

let keys = List.map key all

let valid_spellings = "ie, be, ce, random[N], ff, ose or staged"

let of_string s =
  match String.lowercase_ascii s with
  | "ie" -> Ok Ie
  | "be" -> Ok Be
  | "ce" -> Ok Ce
  | "ff" -> Ok Ff
  | "ose" -> Ok Ose
  | "staged" -> Ok Staged
  | "random" -> Ok (Random 100)
  | other when String.length other > 6 && String.sub other 0 6 = "random" -> (
      match int_of_string_opt (String.sub other 6 (String.length other - 6)) with
      | Some n when n > 0 -> Ok (Random n)
      | _ -> Error (Printf.sprintf "unknown search %s (valid: %s)" other valid_spellings))
  | other -> Error (Printf.sprintf "unknown search %s (valid: %s)" other valid_spellings)

let describe = function
  | Ie ->
      "Remove the single worst flag per pass until no removal improves by the threshold \
       (paper Section 5.2)."
  | Be -> "Rate every single-flag removal once against the start and drop all harmful flags."
  | Ce ->
      "Batch first pass, then re-test the initially-harmful flags against the evolving \
       baseline."
  | Random n -> Printf.sprintf "Rate %d uniformly random configurations and keep the best." n
  | Ff ->
      "Chow & Wu foldover screening: estimate per-flag main effects from random designs, \
       confirm survivors individually."
  | Ose ->
      "Walk a predefined tree of optimization-group removals and stack the winning groups."
  | Staged ->
      "Learned search: ridge-regression flag importances from live probes plus the store's \
       rating corpus, then focused elimination over the survivors."

let stage_plan = function
  | Ie | Ce -> "eliminate"
  | Be -> "batch"
  | Random _ -> "sample"
  | Ff -> "factorial"
  | Ose -> "explore"
  | Staged -> "screen -> refine"

type stage = { sg_label : string; sg_ratings : int; sg_flags : int }

type ctx = {
  threshold : float;
  seed : int;
  prepare : Search.prepare;
  rate_many : Search.rate_many option;
  relative : Search.relative;
  corpus : (Optconfig.t * float) list;
  enter_stage : int -> string -> unit;
  leave_stage : unit -> unit;
}

let make_ctx ?(threshold = 0.005) ?(seed = 11) ?(prepare = fun _ -> ()) ?rate_many
    ?(corpus = []) ?(enter_stage = fun _ _ -> ()) ?(leave_stage = fun () -> ()) ~relative () =
  { threshold; seed; prepare; rate_many; relative; corpus; enter_stage; leave_stage }

let run_stage ctx k label f =
  ctx.enter_stage k label;
  Fun.protect ~finally:ctx.leave_stage f

(* A one-stage strategy: wrap a classic Search function, announce its
   single stage, and derive the stage record from the returned stats. *)
let single ctx ~label ~scope f start =
  let best, stats = run_stage ctx 1 label (fun () -> f start) in
  (best, stats, [ { sg_label = label; sg_ratings = stats.Search.ratings; sg_flags = scope } ])

(* Random and FF draw their candidate streams from [seed + 3] — the
   exact RNG the driver historically created for them — so results stay
   bit-identical with pre-registry runs. *)
let search_rng ctx = Peak_util.Rng.create ~seed:(ctx.seed + 3)

(* ---- the staged (learned) strategy ---------------------------------- *)

let staged_probe_count ~trained n = if trained then max 4 ((n + 7) / 8) else max 8 ((n + 2) / 3)

(* Survivor count for an untrained stage 2: with only probe evidence the
   screen can merely *rank* the harmful flags into the kept set, not pin
   their effects to zero, so keep a generous top fraction.  Everything
   below the cut is frozen. *)
let staged_keep_count n = max 1 ((11 * n + 19) / 20)

(* Keep only corpus rows whose eval plausibly is a relative time: index
   entries mix absolute cycle counts (huge) with relative ratings
   (around 1.0), and only the latter say anything about flag harm. *)
let plausible_relative e = Float.is_finite e && e > 0.25 && e < 4.0

let staged_screen ctx start =
  let flags = Array.of_list (Optconfig.enabled start) in
  let n = Array.length flags in
  if n = 0 then ([], 0)
  else begin
    let prior = List.filter (fun (_, e) -> plausible_relative e) ctx.corpus in
    (* a corpus at least as large as the flag universe pins the per-flag
       effects about as well as Batch Elimination's full scan would, so
       the screen can trust a tight threshold cut and spend fewer live
       probes; an untrained screen falls back to a rank cut *)
    let trained = List.length prior >= n in
    let probes = staged_probe_count ~trained n in
    let rng = search_rng ctx in
    (* candidates are drawn before any rating (the oracle never touches
       the rng), so the probe set is a pure function of the seed *)
    let candidates =
      List.init probes (fun _ ->
          Array.fold_left
            (fun c f -> if Peak_util.Rng.bool rng then c else Optconfig.disable c f)
            start flags)
    in
    ctx.prepare candidates;
    let rate_all =
      Option.value ctx.rate_many ~default:(Search.sequential_rate_many ~relative:ctx.relative)
    in
    let rs = rate_all ~base:start candidates in
    let live =
      List.filter (fun (_, r) -> Float.is_finite r) (List.combine candidates rs)
    in
    let observations = live @ prior in
    if observations = [] then
      (* every probe quarantined and no usable corpus: keep the whole
         universe so stage 2 degrades to plain combined elimination *)
      (Array.to_list flags |> List.map (fun f -> (f, infinity)), probes)
    else begin
      (* centered ±1 factorial coding: +1 when the flag is on, −1 when
         off, with the mean response subtracted instead of an intercept
         column.  Random draws make the columns near-orthogonal, so the
         ridge solve recovers per-flag main effects even with fewer
         observations than flags; coefficient i estimates *half* the
         relative-time increase from enabling flag i, so positive =
         harmful *)
      let mean_time =
        List.fold_left (fun acc (_, t) -> acc +. t) 0.0 observations
        /. float_of_int (List.length observations)
      in
      let row c =
        Array.init n (fun i -> if Optconfig.is_enabled c flags.(i) then 1.0 else -1.0)
      in
      let counts = Array.of_list (List.map (fun (c, _) -> row c) observations) in
      let times = Array.of_list (List.map (fun (_, t) -> t -. mean_time) observations) in
      let f = Peak_util.Regression.ridge ~counts ~times () in
      let scored =
        List.init n (fun i -> (i, 2.0 *. f.Peak_util.Regression.coefficients.(i)))
      in
      (* Rank by fitted effect (positive = enabling the flag makes the
         program slower) and keep the top slice.  A rank cut beats a
         threshold cut even on a trained corpus: flags that only hurt in
         interaction with another flag have a near-zero *main* effect,
         which still ranks above the mostly-beneficial majority — and a
         false survivor costs one rating in the refine stage's first
         pass, while a false elimination is unrecoverable. *)
      let ranked =
        List.sort
          (fun (ia, a) (ib, b) ->
            match compare (b : float) a with 0 -> compare ia ib | c -> c)
          scored
      in
      let kept = List.filteri (fun rank _ -> rank < staged_keep_count n) ranked in
      (* restore flag-universe order so the refine stage walks survivors
         in the same order combined elimination would *)
      let survivors =
        List.sort (fun (ia, _) (ib, _) -> compare ia ib) kept
        |> List.map (fun (i, importance) -> (flags.(i), importance))
      in
      (survivors, probes)
    end
  end

let run_staged ctx start =
  let scope = List.length (Optconfig.enabled start) in
  let survivors, probe_ratings = run_stage ctx 1 "screen" (fun () -> staged_screen ctx start) in
  let stage1 = { sg_label = "screen"; sg_ratings = probe_ratings; sg_flags = scope } in
  let flags = List.map fst survivors in
  (* screening eliminated everything (or the start had no flags):
     return the start untouched instead of running an empty stage 2 *)
  let best, refine_stats =
    if flags = [] then (start, { Search.ratings = 0; iterations = 0; trajectory = [] })
    else
      run_stage ctx 2 "refine" (fun () ->
          Search.focused_elimination ~threshold:ctx.threshold ~prepare:ctx.prepare
            ?rate_many:ctx.rate_many ~flags ~relative:ctx.relative start)
  in
  let stage2 =
    {
      sg_label = "refine";
      sg_ratings = refine_stats.Search.ratings;
      sg_flags = List.length flags;
    }
  in
  ( best,
    {
      Search.ratings = probe_ratings + refine_stats.Search.ratings;
      iterations = 1 + refine_stats.Search.iterations;
      trajectory = refine_stats.Search.trajectory;
    },
    [ stage1; stage2 ] )

let run s ctx start =
  let threshold = ctx.threshold and prepare = ctx.prepare and rate_many = ctx.rate_many in
  let relative = ctx.relative in
  let enabled = List.length (Optconfig.enabled start) and universe = Array.length Flags.all in
  match s with
  | Ie ->
      single ctx ~label:"eliminate" ~scope:enabled
        (Search.iterative_elimination ~threshold ~prepare ?rate_many ~relative)
        start
  | Be ->
      single ctx ~label:"batch" ~scope:enabled
        (Search.batch_elimination ~threshold ~prepare ?rate_many ~relative)
        start
  | Ce ->
      single ctx ~label:"eliminate" ~scope:enabled
        (Search.combined_elimination ~threshold ~prepare ?rate_many ~relative)
        start
  | Random samples ->
      single ctx ~label:"sample" ~scope:universe
        (Search.random_search ~samples ?rate_many ~rng:(search_rng ctx) ~relative)
        start
  | Ff ->
      single ctx ~label:"factorial" ~scope:universe
        (Search.fractional_factorial ~threshold ?rate_many ~rng:(search_rng ctx) ~relative)
        start
  | Ose -> single ctx ~label:"explore" ~scope:enabled (Search.ose ~threshold ~relative) start
  | Staged -> run_staged ctx start
