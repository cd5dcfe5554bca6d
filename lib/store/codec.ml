open Peak_compiler

let version = 5

(* Canonical rating-method names — kept in lockstep with
   [Peak.Method.all] (the store sits below the core library in the
   dependency order, so it carries its own mirror; a core-side test
   asserts the two lists match). *)
let method_names = [ "CBR"; "MBR"; "RBR"; "AVG"; "WHL" ]

(* Canonical search-strategy keys — the same mirror arrangement with
   [Peak.Strategy.all] ("random" stands for the parameterized
   "random<n>" family). *)
let search_keys = [ "ie"; "be"; "ce"; "random"; "ff"; "ose"; "staged" ]

let valid_search_key name =
  (* "" is the pre-v5 marker: a v1-v4 result decodes to it, and its
     re-encoded form must keep round-tripping *)
  let fixed = name = "" || List.mem name search_keys in
  let random_n =
    String.length name > 6
    && String.sub name 0 6 = "random"
    && match int_of_string_opt (String.sub name 6 (String.length name - 6)) with
       | Some n -> n > 0
       | None -> false
  in
  if fixed || random_n then Ok name
  else
    Error
      (Printf.sprintf "unknown search strategy %S (valid: %s)" name
         (String.concat ", " search_keys))

let valid_method name =
  if List.mem name method_names then Ok name
  else Error (Printf.sprintf "unknown rating method %S (valid: %s)" name
                (String.concat ", " method_names))

(* Session metadata stores the *requested* method: a lower-case
   canonical name, or "auto" when the consultant chooses. *)
let valid_method_request name =
  if name = "auto" || List.mem name (List.map String.lowercase_ascii method_names) then Ok name
  else
    Error
      (Printf.sprintf "unknown requested rating method %S (valid: auto, %s)" name
         (String.concat ", " (List.map String.lowercase_ascii method_names)))

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let ( let* ) r f = Result.bind r f

(* Every record carries the format version; refuse to decode the
   future.  Decoders that enforce version-dependent rules (v4 numeric
   hygiene) use [checked_version] to learn which version wrote the
   record. *)
let checked_version v =
  match Json.get_int "v" v with
  | Error _ -> Error "missing format version"
  | Ok n when n > version -> Error (Printf.sprintf "store format v%d is newer than v%d" n version)
  | Ok n -> Ok n

(* v4 numeric hygiene: NaN never decodes from a v4+ record, and
   infinities only where a decoder explicitly allows a sentinel (the
   quarantine eval).  Older records decode leniently — they were written
   before the rule existed. *)
let require_finite ~ver key f =
  if ver >= 4 && not (Float.is_finite f) then
    Error (Printf.sprintf "member %S: non-finite value in a v%d record" key ver)
  else Ok f

type consumption = { c_invocations : int; c_passes : int; c_cycles : float }

type event = {
  e_method : string;
  e_ctx : string;
  e_base : string;
  e_idx : int;
  e_config : Optconfig.t;
  e_eval : float;
  e_converged : bool;
  e_used : consumption;
  e_fail : string option;
      (* quarantine reason ("crashed", "hung", "wrong-output") when the
         config was condemned rather than rated; [None] for clean ratings *)
  e_retries : int;  (* transient failures absorbed before this outcome *)
}

type session_meta = {
  m_id : string;
  m_benchmark : string;
  m_machine : string;
  m_dataset : string;
  m_search : string;
  m_seed : int;
  m_threshold : float;
  m_params : string;
  m_method : string;
  m_start : Optconfig.t;
  m_faults : string;
      (* serialized fault plan ([Fault.to_string]) or "-" when the
         session ran without injection — resume rebuilds the plan *)
}

type attempt = { at_method : string; at_converged : bool; at_ratings : int }

type method_metrics = { mm_method : string; mm_ratings : int; mm_invocations : int }

type metrics = {
  x_methods : method_metrics list;
  x_quarantined : int;
  x_retries : int;
  x_invocations : int;
  x_cycles : float;
}

type stage = { st_label : string; st_ratings : int; st_flags : int }

type session_result = {
  r_method : string;
  r_strategy : string;
      (* the search strategy's canonical key (v5); "" for decoded v1–v4
         results, whose strategy identity lives only in session_meta *)
  r_stages : stage list;
      (* per-stage rating spend in execution order (v5); [] before *)
  r_attempts : attempt list;
  r_best : Optconfig.t;
  r_ratings : int;
  r_iterations : int;
  r_trajectory : (Optconfig.t * float) list;
  r_tuning_cycles : float;
  r_tuning_seconds : float;
  r_passes : int;
  r_invocations : int;
  r_quarantined : (Optconfig.t * string) list;
      (* condemned configs in submission order, with the reason each
         was condemned *)
  r_retries : int;  (* transient-failure retries absorbed session-wide *)
  r_metrics : metrics option;
      (* deterministic per-method accounting (v4); [None] for decoded
         v1–v3 results *)
}

(* ---------------- floats ---------------- *)

let float_to_json f =
  if Float.is_nan f then Json.String "nan"
  else if f = Float.infinity then Json.String "inf"
  else if f = Float.neg_infinity then Json.String "-inf"
  else Json.Float f

let float_of_json = function
  | Json.String "nan" -> Ok Float.nan
  | Json.String "inf" -> Ok Float.infinity
  | Json.String "-inf" -> Ok Float.neg_infinity
  | v -> Json.to_float v

let get_special_float key v =
  let* m = Json.member key v in
  match float_of_json m with
  | Ok f -> Ok f
  | Error e -> Error (Printf.sprintf "member %S: %s" key e)

(* ---------------- configurations ---------------- *)

let optconfig_to_json c =
  Json.Obj
    [
      ("digest", Json.String (Optconfig.digest c));
      ("flags", Json.List (List.map (fun n -> Json.String n) (Optconfig.canonical_names c)));
    ]

let optconfig_of_json v =
  let* digest = Json.get_str "digest" v in
  let* flag_json = Json.get_list "flags" v in
  let* names =
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* n = Json.to_str j in
        Ok (n :: acc))
      (Ok []) flag_json
  in
  let* config =
    match Optconfig.of_names (List.rev names) with
    | c -> Ok c
    | exception Invalid_argument msg -> Error msg
  in
  if Optconfig.digest config <> digest then
    Error
      (Printf.sprintf "configuration digest mismatch (stored %s, recomputed %s)" digest
         (Optconfig.digest config))
  else Ok config

(* ---------------- trajectories ---------------- *)

let trajectory_to_json steps =
  Json.List
    (List.map
       (fun (c, gain) -> Json.Obj [ ("config", optconfig_to_json c); ("gain", float_to_json gain) ])
       steps)

let trajectory_of_json v =
  let* items = Json.to_list v in
  let* steps =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* cj = Json.member "config" item in
        let* c = optconfig_of_json cj in
        let* gain = get_special_float "gain" item in
        Ok ((c, gain) :: acc))
      (Ok []) items
  in
  Ok (List.rev steps)

(* ---------------- rating events (journal lines) ---------------- *)

let event_to_json (e : event) =
  Json.Obj
    ([
       ("v", Json.Int version);
       ("t", Json.String "rating");
       ("method", Json.String e.e_method);
       ("ctx", Json.String e.e_ctx);
       ("base", Json.String e.e_base);
       ("idx", Json.Int e.e_idx);
       ("config", optconfig_to_json e.e_config);
       ("eval", float_to_json e.e_eval);
       ("conv", Json.Bool e.e_converged);
       ("inv", Json.Int e.e_used.c_invocations);
       ("passes", Json.Int e.e_used.c_passes);
       ("cycles", float_to_json e.e_used.c_cycles);
     ]
    @ (match e.e_fail with None -> [] | Some r -> [ ("fail", Json.String r) ])
    @ if e.e_retries = 0 then [] else [ ("retries", Json.Int e.e_retries) ])

let event_of_json v =
  let* ver = checked_version v in
  let* t = Json.get_str "t" v in
  let* () = if t = "rating" then Ok () else Error ("unexpected record type " ^ t) in
  let* e_method = Result.bind (Json.get_str "method" v) valid_method in
  let* e_ctx = Json.get_str "ctx" v in
  let* e_base = Json.get_str "base" v in
  let* e_idx = Json.get_int "idx" v in
  let* cj = Json.member "config" v in
  let* e_config = optconfig_of_json cj in
  let* e_eval = get_special_float "eval" v in
  (* v1 journals predate the convergence flag; it is only consulted for
     fallback probes, which no v1 session ever recorded *)
  let* e_converged =
    match Json.member "conv" v with Error _ -> Ok true | Ok j -> Json.to_bool j
  in
  let* c_invocations = Json.get_int "inv" v in
  let* c_passes = Json.get_int "passes" v in
  let* c_cycles = get_special_float "cycles" v in
  (* v2 journals predate fault tolerance: every recorded rating was
     clean and retry-free *)
  let* e_fail =
    match Json.member "fail" v with
    | Error _ -> Ok None
    | Ok j ->
        let* r = Json.to_str j in
        Ok (Some r)
  in
  let* e_retries = match Json.member "retries" v with Error _ -> Ok 0 | Ok j -> Json.to_int j in
  (* v4 numeric hygiene: a NaN eval is never a valid rating, and an
     infinite one is only the quarantine/no-samples sentinel — it must
     carry a failure reason.  Without this, a hand-edited or corrupted
     journal line could feed a non-finite rating into the index and
     poison warm-start distances. *)
  let* () =
    if ver < 4 then Ok ()
    else if Float.is_nan e_eval then Error "member \"eval\": NaN rating in a v4 record"
    else if (not (Float.is_finite e_eval)) && e_fail = None then
      Error "member \"eval\": infinite rating without a failure reason in a v4 record"
    else Ok ()
  in
  let* c_cycles = require_finite ~ver "cycles" c_cycles in
  Ok
    {
      e_method;
      e_ctx;
      e_base;
      e_idx;
      e_config;
      e_eval;
      e_converged;
      e_used = { c_invocations; c_passes; c_cycles };
      e_fail;
      e_retries;
    }

(* ---------------- session metadata ---------------- *)

let session_meta_to_json (m : session_meta) =
  Json.Obj
    [
      ("v", Json.Int version);
      ("t", Json.String "session");
      ("id", Json.String m.m_id);
      ("benchmark", Json.String m.m_benchmark);
      ("machine", Json.String m.m_machine);
      ("dataset", Json.String m.m_dataset);
      ("search", Json.String m.m_search);
      ("seed", Json.Int m.m_seed);
      ("threshold", float_to_json m.m_threshold);
      ("params", Json.String m.m_params);
      ("method", Json.String m.m_method);
      ("start", optconfig_to_json m.m_start);
      ("faults", Json.String m.m_faults);
    ]

let session_meta_of_json v =
  let* ver = checked_version v in
  let* m_id = Json.get_str "id" v in
  let* m_benchmark = Json.get_str "benchmark" v in
  let* m_machine = Json.get_str "machine" v in
  let* m_dataset = Json.get_str "dataset" v in
  let* m_search = Json.get_str "search" v in
  let* m_seed = Json.get_int "seed" v in
  let* m_threshold =
    Result.bind (get_special_float "threshold" v) (require_finite ~ver "threshold")
  in
  let* m_params = Json.get_str "params" v in
  let* m_method = Result.bind (Json.get_str "method" v) valid_method_request in
  let* sj = Json.member "start" v in
  let* m_start = optconfig_of_json sj in
  (* v2 sessions predate fault injection *)
  let* m_faults =
    match Json.member "faults" v with Error _ -> Ok "-" | Ok j -> Json.to_str j
  in
  Ok
    {
      m_id;
      m_benchmark;
      m_machine;
      m_dataset;
      m_search;
      m_seed;
      m_threshold;
      m_params;
      m_method;
      m_start;
      m_faults;
    }

(* ---------------- session results ---------------- *)

let attempt_to_json (a : attempt) =
  Json.Obj
    [
      ("method", Json.String a.at_method);
      ("converged", Json.Bool a.at_converged);
      ("ratings", Json.Int a.at_ratings);
    ]

let attempt_of_json v =
  let* at_method = Result.bind (Json.get_str "method" v) valid_method in
  let* at_converged = Json.get_bool "converged" v in
  let* at_ratings = Json.get_int "ratings" v in
  Ok { at_method; at_converged; at_ratings }

let metrics_to_json (x : metrics) =
  Json.Obj
    [
      ( "methods",
        Json.List
          (List.map
             (fun mm ->
               Json.Obj
                 [
                   ("method", Json.String mm.mm_method);
                   ("ratings", Json.Int mm.mm_ratings);
                   ("invocations", Json.Int mm.mm_invocations);
                 ])
             x.x_methods) );
      ("quarantined", Json.Int x.x_quarantined);
      ("retries", Json.Int x.x_retries);
      ("invocations", Json.Int x.x_invocations);
      ("cycles", float_to_json x.x_cycles);
    ]

let metrics_of_json v =
  let* mj = Json.get_list "methods" v in
  let* methods =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* mm_method = Result.bind (Json.get_str "method" item) valid_method in
        let* mm_ratings = Json.get_int "ratings" item in
        let* mm_invocations = Json.get_int "invocations" item in
        Ok ({ mm_method; mm_ratings; mm_invocations } :: acc))
      (Ok []) mj
  in
  let* x_quarantined = Json.get_int "quarantined" v in
  let* x_retries = Json.get_int "retries" v in
  let* x_invocations = Json.get_int "invocations" v in
  let* x_cycles =
    Result.bind (get_special_float "cycles" v) (require_finite ~ver:version "cycles")
  in
  Ok { x_methods = List.rev methods; x_quarantined; x_retries; x_invocations; x_cycles }

let stage_to_json (s : stage) =
  Json.Obj
    [
      ("label", Json.String s.st_label);
      ("ratings", Json.Int s.st_ratings);
      ("flags", Json.Int s.st_flags);
    ]

let stage_of_json v =
  let* st_label = Json.get_str "label" v in
  let* st_ratings = Json.get_int "ratings" v in
  let* st_flags = Json.get_int "flags" v in
  Ok { st_label; st_ratings; st_flags }

let session_result_to_json (r : session_result) =
  Json.Obj
    ([
       ("v", Json.Int version);
       ("t", Json.String "result");
       ("method", Json.String r.r_method);
       ("strategy", Json.String r.r_strategy);
       ("stages", Json.List (List.map stage_to_json r.r_stages));
       ("attempts", Json.List (List.map attempt_to_json r.r_attempts));
       ("best", optconfig_to_json r.r_best);
       ("ratings", Json.Int r.r_ratings);
       ("iterations", Json.Int r.r_iterations);
       ("trajectory", trajectory_to_json r.r_trajectory);
       ("tuning_cycles", float_to_json r.r_tuning_cycles);
       ("tuning_seconds", float_to_json r.r_tuning_seconds);
       ("passes", Json.Int r.r_passes);
       ("invocations", Json.Int r.r_invocations);
       ( "quarantined",
         Json.List
           (List.map
              (fun (c, reason) ->
                Json.Obj [ ("config", optconfig_to_json c); ("reason", Json.String reason) ])
              r.r_quarantined) );
       ("retries", Json.Int r.r_retries);
     ]
    @ match r.r_metrics with None -> [] | Some x -> [ ("metrics", metrics_to_json x) ])

let session_result_of_json v =
  let* ver = checked_version v in
  let* r_method = Result.bind (Json.get_str "method" v) valid_method in
  (* v1–v4 results predate first-class strategy identity *)
  let* r_strategy =
    match Json.member "strategy" v with
    | Error _ -> Ok ""
    | Ok j -> Result.bind (Json.to_str j) valid_search_key
  in
  let* r_stages =
    match Json.member "stages" v with
    | Error _ -> Ok []
    | Ok j ->
        let* items = Json.to_list j in
        let* stages =
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let* s = stage_of_json item in
              Ok (s :: acc))
            (Ok []) items
        in
        Ok (List.rev stages)
  in
  (* v1 results predate the attempted-method chain *)
  let* r_attempts =
    match Json.member "attempts" v with
    | Error _ -> Ok []
    | Ok j ->
        let* items = Json.to_list j in
        let* attempts =
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let* a = attempt_of_json item in
              Ok (a :: acc))
            (Ok []) items
        in
        Ok (List.rev attempts)
  in
  let* bj = Json.member "best" v in
  let* r_best = optconfig_of_json bj in
  let* r_ratings = Json.get_int "ratings" v in
  let* r_iterations = Json.get_int "iterations" v in
  let* tj = Json.member "trajectory" v in
  let* r_trajectory = trajectory_of_json tj in
  let* () =
    if ver < 4 || List.for_all (fun (_, g) -> Float.is_finite g) r_trajectory then Ok ()
    else Error "member \"trajectory\": non-finite gain in a v4 record"
  in
  let* r_tuning_cycles =
    Result.bind (get_special_float "tuning_cycles" v) (require_finite ~ver "tuning_cycles")
  in
  let* r_tuning_seconds =
    Result.bind (get_special_float "tuning_seconds" v) (require_finite ~ver "tuning_seconds")
  in
  let* r_passes = Json.get_int "passes" v in
  let* r_invocations = Json.get_int "invocations" v in
  (* v2 results predate quarantine bookkeeping *)
  let* r_quarantined =
    match Json.member "quarantined" v with
    | Error _ -> Ok []
    | Ok j ->
        let* items = Json.to_list j in
        let* qs =
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let* cj = Json.member "config" item in
              let* c = optconfig_of_json cj in
              let* reason = Json.get_str "reason" item in
              Ok ((c, reason) :: acc))
            (Ok []) items
        in
        Ok (List.rev qs)
  in
  let* r_retries = match Json.member "retries" v with Error _ -> Ok 0 | Ok j -> Json.to_int j in
  (* v3 results predate the metrics block *)
  let* r_metrics =
    match Json.member "metrics" v with
    | Error _ -> Ok None
    | Ok j ->
        let* x = metrics_of_json j in
        Ok (Some x)
  in
  Ok
    {
      r_method;
      r_strategy;
      r_stages;
      r_attempts;
      r_best;
      r_ratings;
      r_iterations;
      r_trajectory;
      r_tuning_cycles;
      r_tuning_seconds;
      r_passes;
      r_invocations;
      r_quarantined;
      r_retries;
      r_metrics;
    }
