(* The rating-method layer: the one definition of "what a rating method
   is" that the driver, harness, CLI, store and bench all share.  See
   method.mli for the contract. *)

type t = Cbr | Mbr | Rbr | Avg | Whl

exception Not_applicable of string

let all = [ Cbr; Mbr; Rbr; Avg; Whl ]
let auto_chain = [ Cbr; Mbr; Rbr ]

let name = function
  | Cbr -> "CBR"
  | Mbr -> "MBR"
  | Rbr -> "RBR"
  | Avg -> "AVG"
  | Whl -> "WHL"

let key m = String.lowercase_ascii (name m)

let of_string s =
  let u = String.uppercase_ascii s in
  List.find_opt (fun m -> name m = u) all

let names = List.map name all
let keys = List.map key all

let request_of_string s =
  if String.lowercase_ascii s = "auto" then Ok None
  else
    match of_string s with
    | Some m -> Ok (Some m)
    | None ->
        Error
          (Printf.sprintf "unknown rating method %s (valid: auto, %s)" s
             (String.concat ", " keys))

let default_max_contexts = 4
let default_max_components = 5

type prepared =
  | Absolute of (Runner.t -> Peak_compiler.Version.t -> Rating.t)
  | Relative of (Runner.t -> base:Peak_compiler.Version.t -> Peak_compiler.Version.t -> Rating.t)

let condition = function
  | Cbr -> "context analysis succeeds and the observed contexts stay few"
  | Mbr -> "the basic-block component model stays small"
  | Rbr -> "the tuning section calls no side-effecting externals"
  | Avg | Whl -> "always (baseline; never chosen automatically)"

let describe = function
  | Cbr -> "average invocation times observed under one specific context (Section 2.2)"
  | Mbr -> "regress invocation time onto basic-block component counts (Section 2.3)"
  | Rbr -> "re-execute base and candidate back to back under a restored context (Section 2.4)"
  | Avg -> "average invocation times regardless of context — the unfair strawman (Section 5.2)"
  | Whl -> "time whole program runs, non-TS portion included (Section 5.2)"

let applicable ?(max_contexts = default_max_contexts)
    ?(max_components = default_max_components) m (profile : Profile.t) =
  match m with
  | Cbr -> (
      match profile.Profile.context with
      | Profile.Cbr_no reason -> Error (Printf.sprintf "CBR: %s" reason)
      | Profile.Cbr_ok { stats; _ } ->
          let n = List.length stats in
          if n > max_contexts then
            Error (Printf.sprintf "CBR: %d contexts exceed the limit of %d" n max_contexts)
          else Ok ())
  | Mbr ->
      let n = Component_analysis.n_components profile.Profile.components in
      if n > max_components then
        Error (Printf.sprintf "MBR: %d components exceed the limit of %d" n max_components)
      else Ok ()
  | Rbr ->
      if profile.Profile.impure_calls then
        Error "RBR: tuning section calls side-effecting externals"
      else Ok ()
  | Avg | Whl -> Ok ()

(* Per-rating observability: when a tracer sink is installed, every
   rating call emits a "rating:<METHOD>" instant carrying the one rating
   produced and the invocations consumed, plus method-keyed counters.
   With tracing off the wrappers reduce to the raw raters — one branch,
   no clock reads. *)
let observed mname prepared =
  let emit runner before outcome =
    let delta = Runner.invocations_consumed runner - before in
    Peak_obs.count ("method.ratings." ^ mname);
    Peak_obs.count ~n:delta ("method.invocations." ^ mname);
    Peak_obs.instant ~cat:"method"
      ~args:[ ("ratings", "1"); ("invocations", string_of_int delta); ("outcome", outcome) ]
      ("rating:" ^ mname)
  in
  let watch runner f =
    if not (Peak_obs.active ()) then f ()
    else
      let before = Runner.invocations_consumed runner in
      match f () with
      | r ->
          emit runner before "rated";
          r
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          emit runner before (match e with Rating.No_samples _ -> "no-samples" | _ -> "raised");
          Printexc.raise_with_backtrace e bt
  in
  match prepared with
  | Absolute rate -> Absolute (fun runner v -> watch runner (fun () -> rate runner v))
  | Relative rate -> Relative (fun runner ~base v -> watch runner (fun () -> rate runner ~base v))

(* Forcing CBR past the context-count limit is allowed (the paper's
   MGRID_CBR bar); only a failed context analysis is structural. *)
let prepare ?(params = Rating.default_params) ~non_ts_cycles m (profile : Profile.t) =
  observed (name m)
    (match m with
    | Cbr -> (
        match profile.Profile.context with
        | Profile.Cbr_no reason -> raise (Not_applicable ("CBR: " ^ reason))
        | Profile.Cbr_ok { sources; stats; _ } ->
            let target = match stats with s :: _ -> s.Profile.values | [] -> [||] in
            Absolute (fun runner v -> Cbr.rate ~params runner ~sources ~target v))
    | Mbr ->
        let components = profile.Profile.components in
        let avg_counts = profile.Profile.avg_component_counts in
        let dominant = profile.Profile.dominant_component in
        Absolute (fun runner v -> Mbr.rate ~params runner ~components ~avg_counts ~dominant v)
    | Rbr -> Relative (fun runner ~base v -> Rbr.rate ~params runner ~base v)
    | Avg -> Absolute (fun runner v -> Avg.rate ~params runner v)
    | Whl -> Absolute (fun runner v -> Whl.rate runner ~non_ts_cycles v))

type attempt = { a_method : t; a_converged : bool; a_ratings : int }

let chain_string attempts = String.concat ">" (List.map (fun a -> name a.a_method) attempts)
