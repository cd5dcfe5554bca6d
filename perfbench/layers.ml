(* Per-layer metrics from an exported trace, read back with
   [Peak.Tracefile].  Span categories come from two places: the library's
   own spans ([tune], [phase.profile], [phase.search], [rate]) and the
   benchmark's spans around each public call it makes ([bench.*]).
   Times and counts are per completed session unless the unit says
   otherwise. *)

open Peak
module T = Tracefile

let sec us = us /. 1e6

let spans (tr : T.t) cat = List.filter (fun s -> s.T.sp_cat = cat) tr.T.spans

let total tr cat = List.fold_left (fun acc s -> acc +. sec s.T.sp_dur) 0.0 (spans tr cat)

(* Sum of every counter named [prefix] or [prefix.<anything>]. *)
let counter (tr : T.t) prefix =
  List.fold_left
    (fun acc (name, v) ->
      if name = prefix || String.starts_with ~prefix:(prefix ^ ".") name then acc + v else acc)
    0 tr.T.counters

let timing (tr : T.t) name =
  match List.assoc_opt name tr.T.timings with Some t -> t | None -> (0, 0.0)

let children (tr : T.t) =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add tbl s.T.sp_parent s) tr.T.spans;
  fun id -> Hashtbl.find_all tbl id

let ends s = s.T.sp_ts +. s.T.sp_dur
let inside outer s = s.T.sp_ts >= outer.T.sp_ts && ends s <= ends outer
let interval s = (s.T.sp_ts, ends s)

(* Self time of the search phase: each search span minus the union of
   its own rating spans and of any other session's [tune] run nested
   inside it.  On one domain the pool's caller helps drain the queue, so
   a suite session's search can run other sessions' whole tunes. *)
let search_self tr =
  let kids = children tr in
  let rec rates id =
    List.concat_map
      (fun s -> if s.T.sp_cat = "rate" then [ interval s ] else rates s.T.sp_id)
      (kids id)
  in
  let tunes = spans tr "tune" in
  List.fold_left
    (fun acc s ->
      let nested =
        List.filter_map (fun t -> if inside s t then Some (interval t) else None) tunes
      in
      acc +. sec (s.T.sp_dur -. Stats.union_length (rates s.T.sp_id @ nested)))
    0.0 (spans tr "phase.search")

(* Session time that no layer span covers.  A session's own library
   [tune] span (and, on suite, the evaluation spans) cover it; what is
   left is admission, session open and journal replay, result encoding,
   wire framing and the suite's own bookkeeping.  A client session span
   is named [session:<BENCHMARK>:<id>], which picks out its tune span. *)
let unattributed tr ~session_cat =
  let covering = spans tr "tune" @ spans tr "bench.eval" in
  let own s t =
    match String.split_on_char ':' s.T.sp_name with
    | [ "session"; bench; _ ] -> String.starts_with ~prefix:("tune:" ^ bench ^ ":") t.T.sp_name
    | _ -> true
  in
  let total, uncovered =
    List.fold_left
      (fun (total, uncovered) s ->
        let cover =
          List.filter_map
            (fun t -> if inside s t && own s t then Some (interval t) else None)
            covering
        in
        (total +. s.T.sp_dur, uncovered +. (s.T.sp_dur -. Stats.union_length cover)))
      (0.0, 0.0) (spans tr session_cat)
  in
  if total > 0.0 then uncovered /. total else 0.0

(* Client-side submit→Accepted and Accepted→result times per session. *)
let client_times tr =
  let kids = children tr in
  List.filter_map
    (fun s ->
      let step cat = List.find_opt (fun c -> c.T.sp_cat = cat) (kids s.T.sp_id) in
      match (step "bench.accept", step "bench.result") with
      | Some a, Some r -> Some (sec (a.T.sp_ts +. a.T.sp_dur -. s.T.sp_ts), sec r.T.sp_dur)
      | _ -> None)
    (spans tr "bench.session")

type context = {
  sessions : int;  (** Sessions completed in the traced phase. *)
  session_cat : string;
      (** The benchmark's span that is one session ([bench.session]) or
          one suite pass ([bench.pass]). *)
  search_ratings : float;  (** Mean search ratings per session, from the results. *)
  overhead_frac : float;
  rejected : int;
  gc_minor_mb : float;  (** Per session, from the untraced reference phase. *)
  gc_major : float;
}

let metrics (tr : T.t) c =
  let n = float_of_int (max 1 c.sessions) in
  let per x = x /. n in
  let m = Output.metric in
  let admit, run = List.split (client_times tr) in
  let rtt = List.map (fun s -> sec s.T.sp_dur) (spans tr "bench.ping") in
  let p50 = function [] -> 0.0 | xs -> Stats.median xs in
  let fsyncs, fsync_s = timing tr "journal.fsync" in
  let completes, complete_s = timing tr "store.complete" in
  let rate_s = total tr "rate" in
  let invocations = counter tr "method.invocations" in
  let pool_n name = per (float_of_int (counter tr name)) in
  [
    m "serve.admit_s_p50" "s" (p50 admit)
      (Printf.sprintf "p50 of n=%d, submit to Accepted (client side)" (List.length admit));
    m "serve.run_s_p50" "s" (p50 run)
      (Printf.sprintf "p50 of n=%d, Accepted to result (client side)" (List.length run));
    m "serve.rtt_s_p50" "s" (p50 rtt)
      (Printf.sprintf "p50 of n=%d Ping round trips" (List.length rtt));
    m "serve.rejected" "count" (float_of_int c.rejected) "daemon Stats_req, whole traced phase";
    m "store.appends" "count/session" (per (float_of_int (counter tr "journal.appends")))
      "journal.appends counter";
    m "store.fsyncs" "count/session" (per (float_of_int fsyncs)) "journal.fsync timing count";
    m "store.fsync_s" "s/session" (per fsync_s) "journal.fsync timing total";
    m "store.complete_s" "s/session" (per complete_s)
      (Printf.sprintf "store.complete timing total over %d completions" completes);
    m "driver.profile_s" "s/session" (per (total tr "phase.profile")) "phase.profile spans";
    m "driver.profiles" "count/session"
      (per (float_of_int (List.length (spans tr "phase.profile"))))
      "phase.profile spans";
    m "method.rate_s" "s/session" (per rate_s) "rate spans, summed over domains";
    m "method.ratings" "count/session" (per (float_of_int (counter tr "method.ratings")))
      "method.ratings.* counters (fresh ratings)";
    m "method.invocations" "count/session" (per (float_of_int invocations))
      "method.invocations.* counters";
    m "method.us_per_invocation" "us"
      (if invocations = 0 then 0.0 else rate_s /. float_of_int invocations *. 1e6)
      "rate span time / invocations";
    m "search.self_s" "s/session" (per (search_self tr))
      "phase.search minus the union of its rate spans and nested tunes";
    m "search.ratings_per_session" "count/session" c.search_ratings
      "mean Search.stats ratings of the sessions' results";
    m "eval.busy_s" "s/session" (per (total tr "bench.eval")) "spans around Driver.improvement_pct";
    m "eval.calls" "count/session"
      (per (float_of_int (List.length (spans tr "bench.eval"))))
      "Driver.improvement_pct calls";
    m "pool.submitted" "count/session" (pool_n "pool.submitted") "pool.submitted counter";
    m "pool.worker_tasks" "count/session" (pool_n "pool.worker_tasks") "pool.worker_tasks counter";
    m "pool.steals" "count/session" (pool_n "pool.steals") "pool.steals counter";
    m "obs.overhead_frac" "ratio" c.overhead_frac
      "1 - traced sessions_per_s / mean of the untraced phases before and after";
    m "obs.unattributed_frac" "ratio" (unattributed tr ~session_cat:c.session_cat)
      (Printf.sprintf "share of %s time outside its tune and bench.eval spans" c.session_cat);
    m "obs.dropped" "count" (float_of_int tr.T.dropped) "events lost to ring overwrite";
    m "gc.minor_mb" "MB/session" c.gc_minor_mb "Gc.quick_stat minor words, first untraced phase";
    m "gc.major_collections" "count/session" c.gc_major
      "Gc.quick_stat major collections, first untraced phase";
  ]

(* The traced run's integrity: nothing dropped, nothing left open, the
   file passes the exporter's invariants, and every session has exactly
   one library [tune] span ("missing spans count as bugs"). *)
let checks (tr : T.t) ~tunes_expected =
  let unclosed = List.length (List.filter (fun s -> s.T.sp_unclosed) tr.T.spans) in
  let tunes = List.length (spans tr "tune") in
  [
    Output.check "trace.valid" (Result.is_ok (T.validate tr))
      (match T.validate tr with Ok () -> "Tracefile.validate" | Error e -> e);
    Output.check "trace.dropped" (tr.T.dropped = 0) (Printf.sprintf "%d dropped" tr.T.dropped);
    Output.check "trace.open_spans"
      (tr.T.open_spans = 0 && unclosed = 0)
      (Printf.sprintf "%d open, %d unclosed" tr.T.open_spans unclosed);
    Output.check "trace.tune_spans" (tunes = tunes_expected)
      (Printf.sprintf "%d tune spans for %d sessions" tunes tunes_expected);
  ]

(* Install a sink large enough that nothing drops, run [f], and read
   the exported trace back from [path]. *)
let traced ~path f =
  Peak_obs.install ~capacity:(1 lsl 21) ();
  let result =
    Fun.protect ~finally:(fun () ->
        (match Peak_obs.export () with
        | Some doc ->
            let oc = open_out path in
            output_string oc doc;
            close_out oc
        | None -> ());
        Peak_obs.uninstall ())
      f
  in
  match T.load path with
  | Ok tr -> (result, tr)
  | Error e -> failwith ("reading back " ^ path ^ ": " ^ e)
