(* The tracing and metrics layer: tracer unit behavior (off = no-op,
   span nesting, ring bounds, export schema) and the determinism
   guarantee — tracing never perturbs tuning results, at any domain
   count, across kill/resume. *)

open Peak_machine
open Peak_workload
open Peak_store
open Peak

let bench = Oracles.bench
let with_tmpdir = Oracles.with_tmpdir
let check_identical = Oracles.check_identical
let crashed_copy = Oracles.crashed_copy
let contains = Oracles.contains

(* Every test installs its own sink and must leave the global tracer
   off for whoever runs next. *)
let with_sink ?capacity f =
  Peak_obs.install ?capacity ();
  Fun.protect ~finally:Peak_obs.uninstall f

(* ------------------------------------------------------------------ *)
(* Tracer unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let test_off_is_noop () =
  Alcotest.(check bool) "inactive by default" false (Peak_obs.active ());
  Alcotest.(check int) "begin_span returns 0 when off" 0 (Peak_obs.begin_span "x");
  Peak_obs.end_span 0;
  Peak_obs.instant "nothing";
  Peak_obs.count "nothing";
  Peak_obs.observe "nothing" 1.0;
  Alcotest.(check int) "timed is transparent when off" 42 (Peak_obs.timed "t" (fun () -> 42));
  Alcotest.(check int) "dropped 0 when off" 0 (Peak_obs.dropped ());
  Alcotest.(check bool) "no snapshot when off" true (Peak_obs.snapshot () = None);
  Alcotest.(check bool) "no export when off" true (Peak_obs.export () = None)

let test_span_nesting_and_args () =
  with_sink @@ fun () ->
  let outer = Peak_obs.begin_span ~cat:"test" ~args:[ ("k", "v") ] "outer" in
  Alcotest.(check bool) "span ids are positive" true (outer > 0);
  let inner = Peak_obs.begin_span ~parent:outer ~cat:"test" "inner" in
  Peak_obs.end_span inner;
  Peak_obs.end_span ~args:[ ("done", "yes") ] outer;
  Peak_obs.count ~n:3 "unit.counter";
  Peak_obs.observe "unit.timing" 0.25;
  Peak_obs.observe "unit.timing" 0.75;
  let s = Option.get (Peak_obs.snapshot ()) in
  Alcotest.(check int) "two completed events" 2 s.Peak_obs.events;
  Alcotest.(check int) "no open spans" 0 s.Peak_obs.open_spans;
  Alcotest.(check int) "nothing dropped" 0 s.Peak_obs.dropped;
  Alcotest.(check (list (pair string int))) "counter aggregated"
    [ ("unit.counter", 3) ] s.Peak_obs.counters;
  (match s.Peak_obs.timings with
  | [ (name, t) ] ->
      Alcotest.(check string) "timing name" "unit.timing" name;
      Alcotest.(check int) "timing count" 2 t.Peak_obs.t_count;
      Alcotest.(check (float 1e-9)) "timing total" 1.0 t.Peak_obs.t_total
  | _ -> Alcotest.fail "expected exactly one timing");
  match s.Peak_obs.span_stats with
  | [ ("test", st) ] -> Alcotest.(check int) "both spans under test cat" 2 st.Peak_obs.s_count
  | _ -> Alcotest.fail "expected one span category"

let test_with_span_exception () =
  with_sink @@ fun () ->
  (try Peak_obs.with_span "boom" (fun _ -> failwith "boom") with Failure _ -> ());
  let doc = Result.get_ok (Json.of_string (Option.get (Peak_obs.export ()))) in
  let trace = Result.get_ok (Tracefile.of_json doc) in
  Alcotest.(check int) "failing span still closed" 1 (List.length trace.Tracefile.spans);
  Alcotest.(check int) "no open spans" 0 trace.Tracefile.open_spans;
  (* the raised=true tag reaches the export *)
  Alcotest.(check bool) "raised tag in export" true
    (contains ~sub:{|"raised":"true"|} (Option.get (Peak_obs.export ())))

let test_ring_overflow_drops () =
  with_sink ~capacity:16 @@ fun () ->
  for i = 1 to 40 do
    Peak_obs.instant ~args:[ ("i", string_of_int i) ] "tick"
  done;
  Alcotest.(check int) "overflow counted" 24 (Peak_obs.dropped ());
  let s = Option.get (Peak_obs.snapshot ()) in
  Alcotest.(check int) "ring holds capacity events" 16 s.Peak_obs.events;
  (* oldest-first: the survivors are the last 16 ticks *)
  let doc = Result.get_ok (Json.of_string (Option.get (Peak_obs.export ()))) in
  let trace = Result.get_ok (Tracefile.of_json doc) in
  Alcotest.(check int) "export matches ring" 16 (List.length trace.Tracefile.instants);
  Alcotest.(check int) "dropped in otherData" 24 trace.Tracefile.dropped

let test_export_round_trip () =
  with_sink @@ fun () ->
  let outer = Peak_obs.begin_span ~cat:"phase" "outer" in
  Peak_obs.with_span ~parent:outer ~cat:"work" "inner" (fun _ -> ());
  Peak_obs.instant ~cat:"note" "marker";
  Peak_obs.count "c.one";
  Peak_obs.observe "t.one" 0.5;
  (* [outer] stays open: export must flag it and validate must accept *)
  let doc = Result.get_ok (Json.of_string (Option.get (Peak_obs.export ()))) in
  let trace = Result.get_ok (Tracefile.of_json doc) in
  (match Tracefile.validate trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("validate rejected a fresh export: " ^ e));
  Alcotest.(check int) "two spans exported" 2 (List.length trace.Tracefile.spans);
  Alcotest.(check int) "one instant exported" 1 (List.length trace.Tracefile.instants);
  Alcotest.(check int) "one unclosed span" 1 trace.Tracefile.open_spans;
  let unclosed = List.filter (fun s -> s.Tracefile.sp_unclosed) trace.Tracefile.spans in
  (match unclosed with
  | [ s ] -> Alcotest.(check string) "the open span is outer" "outer" s.Tracefile.sp_name
  | _ -> Alcotest.fail "expected exactly one unclosed span");
  let inner = List.find (fun s -> s.Tracefile.sp_name = "inner") trace.Tracefile.spans in
  let outer' = List.find (fun s -> s.Tracefile.sp_name = "outer") trace.Tracefile.spans in
  Alcotest.(check int) "parent link survives the round trip"
    outer'.Tracefile.sp_id inner.Tracefile.sp_parent;
  Alcotest.(check (list (pair string int))) "counters survive"
    [ ("c.one", 1) ] trace.Tracefile.counters;
  match trace.Tracefile.timings with
  | [ ("t.one", (1, total)) ] -> Alcotest.(check (float 1e-9)) "timing total" 0.5 total
  | _ -> Alcotest.fail "expected one timing"

let test_validate_rejects_corruption () =
  with_sink @@ fun () ->
  Peak_obs.with_span "a" (fun _ -> ());
  let doc = Result.get_ok (Json.of_string (Option.get (Peak_obs.export ()))) in
  let trace = Result.get_ok (Tracefile.of_json doc) in
  let span = List.hd trace.Tracefile.spans in
  (* dangling parent id *)
  let bad = { trace with Tracefile.spans = [ { span with Tracefile.sp_parent = 999 } ] } in
  (match Tracefile.validate bad with
  | Ok () -> Alcotest.fail "dangling parent accepted"
  | Error e -> Alcotest.(check bool) "one-line error" false (String.contains e '\n'));
  (* duplicate span ids *)
  let bad = { trace with Tracefile.spans = [ span; span ] } in
  (match Tracefile.validate bad with
  | Ok () -> Alcotest.fail "duplicate span id accepted"
  | Error _ -> ());
  (* unclosed flags disagreeing with otherData *)
  let bad = { trace with Tracefile.open_spans = 3 } in
  match Tracefile.validate bad with
  | Ok () -> Alcotest.fail "open-span mismatch accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Tracing never perturbs results                                      *)
(* ------------------------------------------------------------------ *)

let machine = Machine.sparc2

let test_trace_on_off_identical () =
  let b = bench "MGRID" in
  let plain = Driver.tune ~strategy:Strategy.Be b machine Trace.Train in
  let traced = with_sink (fun () -> Driver.tune ~strategy:Strategy.Be b machine Trace.Train) in
  check_identical "traced vs untraced" plain traced;
  (* the durable summary — what result.json serializes — is byte-identical *)
  let encode r = Json.to_string (Codec.session_result_to_json (Driver.result_summary r)) in
  Alcotest.(check string) "result.json bytes identical" (encode plain) (encode traced)

let test_trace_domain_count_identical () =
  let suite domains =
    with_sink @@ fun () ->
    Driver.tune_suite ~strategy:Strategy.Be ~domains
      [ bench "SWIM"; bench "MGRID" ]
      machine Trace.Train
  in
  let r1 = suite 1 and r4 = suite 4 in
  List.iter2
    (fun a b -> check_identical (a.Driver.benchmark.Benchmark.name ^ " traced 1v4") a b)
    r1 r4

let test_trace_kill_resume_identical () =
  with_tmpdir @@ fun root ->
  let b = bench "SWIM" in
  let strategy = Strategy.Be and method_ = Method.Rbr in
  let meta = Driver.session_meta ~method_ ~strategy b machine Trace.Train in
  let id = meta.Codec.m_id in
  let full_dir = Filename.concat root "full" in
  let session = Result.get_ok (Session.open_ ~dir:full_dir ~meta ()) in
  (* the reference run is untraced *)
  let full =
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () -> Driver.tune ~strategy ~method_ ~store:session b machine Trace.Train)
  in
  let n_events = (Result.get_ok (Session.load_info ~dir:full_dir ~id)).Session.info_events in
  let dst_dir = Filename.concat root "crash" in
  ignore (crashed_copy ~src_dir:full_dir ~dst_dir ~id ~keep:(n_events / 2));
  (* the resume runs with the tracer installed *)
  let resumed =
    with_sink @@ fun () ->
    let session = Result.get_ok (Session.open_ ~dir:dst_dir ~meta ()) in
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () -> Driver.tune ~strategy ~method_ ~store:session b machine Trace.Train)
  in
  check_identical "traced resume vs untraced uninterrupted" full resumed

let test_tune_trace_schema () =
  let export =
    with_sink @@ fun () ->
    (* pool-backed, so the per-rating spans come with the pool
       counters *)
    Peak_util.Pool.run ~domains:2 (fun pool ->
        ignore (Driver.tune ~strategy:Strategy.Be ~pool (bench "MGRID") machine Trace.Train));
    Option.get (Peak_obs.export ())
  in
  let doc = Result.get_ok (Json.of_string export) in
  let trace = Result.get_ok (Tracefile.of_json doc) in
  (match Tracefile.validate trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("tune trace failed validation: " ^ e));
  let cats = List.map (fun s -> s.Tracefile.sp_cat) trace.Tracefile.spans in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " span present") true (List.mem c cats))
    [ "tune"; "phase.profile"; "phase.search"; "rate" ];
  (* every rating span sits under the tune span tree *)
  Alcotest.(check bool) "rate spans have parents" true
    (List.for_all
       (fun s -> s.Tracefile.sp_parent <> 0)
       (List.filter (fun s -> s.Tracefile.sp_cat = "rate") trace.Tracefile.spans));
  (* per-method rating instants and counters made it out *)
  Alcotest.(check bool) "method instants recorded" true
    (List.exists (fun i -> i.Tracefile.i_cat = "method") trace.Tracefile.instants);
  Alcotest.(check bool) "method invocation counters recorded" true
    (List.exists
       (fun (name, n) -> n > 0 && contains ~sub:"method.invocations." name)
       trace.Tracefile.counters);
  (* the summary renderer works on a real trace *)
  let s = Tracefile.summary trace in
  Alcotest.(check bool) "summary mentions spans" true (contains ~sub:"Spans by category" s);
  Alcotest.(check bool) "summary mentions counters" true (contains ~sub:"Counters" s)

(* Rating spans carry the deterministic name rate:<method>:<digest>:a<n>.
   Under Batch Elimination the first batch rates every single-flag
   removal from -O3, so each of those digests names a span. *)
let test_rate_span_names () =
  let r, export =
    with_sink @@ fun () ->
    let r =
      Driver.tune ~strategy:Strategy.Be ~method_:Method.Rbr (bench "SWIM") machine Trace.Train
    in
    (r, Option.get (Peak_obs.export ()))
  in
  let trace = Result.get_ok (Tracefile.of_json (Result.get_ok (Json.of_string export))) in
  let names =
    List.filter_map
      (fun s -> if s.Tracefile.sp_cat = "rate" then Some s.Tracefile.sp_name else None)
      trace.Tracefile.spans
  in
  Alcotest.(check int) "one span per rating" r.Driver.search_stats.Search.ratings
    (List.length names);
  let open Peak_compiler in
  Array.iter
    (fun f ->
      let name =
        Printf.sprintf "rate:%s:%s:a0" (Method.name r.Driver.method_used)
          (Optconfig.digest (Optconfig.disable Optconfig.o3 f))
      in
      Alcotest.(check bool) (name ^ " present") true (List.mem name names))
    Flags.all;
  List.iter
    (fun name ->
      match String.split_on_char ':' name with
      | [ "rate"; "RBR"; digest; "a0" ] when String.length digest = 16 -> ()
      | _ -> Alcotest.failf "malformed rate span name %S" name)
    names

(* Gauges: last-write-wins levels (pool queue depth, in-flight, daemon
   admission), exported next to counters and parsed back by Tracefile. *)
let test_gauges () =
  Peak_obs.gauge "off.gauge" 7 (* no sink: must be a no-op *);
  with_sink @@ fun () ->
  Peak_obs.gauge "unit.level" 3;
  Peak_obs.gauge "unit.level" 11;
  (* overwrite, not accumulate *)
  Peak_obs.gauge "unit.other" 0;
  let s = Option.get (Peak_obs.snapshot ()) in
  Alcotest.(check (list (pair string int)))
    "gauges last-write-wins"
    [ ("unit.level", 11); ("unit.other", 0) ]
    (List.sort compare s.Peak_obs.gauges);
  (* pool gauges exist once a pool has run work under the sink *)
  Peak_util.Pool.run ~domains:2 (fun pool ->
      ignore (Peak_util.Pool.map pool (fun x -> x * x) [ 1; 2; 3; 4 ]));
  let s = Option.get (Peak_obs.snapshot ()) in
  List.iter
    (fun name ->
      match List.assoc_opt name s.Peak_obs.gauges with
      | Some v -> Alcotest.(check int) (name ^ " drained to zero") 0 v
      | None -> Alcotest.failf "gauge %s missing after pool work" name)
    [ "pool.depth"; "pool.inflight" ];
  (* export → Tracefile round-trip preserves them, summary renders them *)
  let doc = Result.get_ok (Json.of_string (Option.get (Peak_obs.export ()))) in
  let trace = Result.get_ok (Tracefile.of_json doc) in
  Alcotest.(check (option int))
    "gauge survives export" (Some 11)
    (List.assoc_opt "unit.level" trace.Tracefile.gauges);
  Alcotest.(check bool) "summary renders gauges" true
    (contains ~sub:"Gauges" (Tracefile.summary trace))

let suites =
  [
    ( "obs.tracer",
      [
        Alcotest.test_case "off is no-op" `Quick test_off_is_noop;
        Alcotest.test_case "gauges overwrite and export" `Quick test_gauges;
        Alcotest.test_case "span nesting and aggregation" `Quick test_span_nesting_and_args;
        Alcotest.test_case "with_span closes on exception" `Quick test_with_span_exception;
        Alcotest.test_case "ring overflow drops oldest" `Quick test_ring_overflow_drops;
        Alcotest.test_case "export round-trips through Tracefile" `Quick test_export_round_trip;
        Alcotest.test_case "validate rejects corruption" `Quick test_validate_rejects_corruption;
      ] );
    ( "obs.determinism",
      [
        Alcotest.test_case "trace on/off bit-identical" `Quick test_trace_on_off_identical;
        Alcotest.test_case "traced -j1 equals -j4" `Quick test_trace_domain_count_identical;
        Alcotest.test_case "traced kill/resume bit-identical" `Quick
          test_trace_kill_resume_identical;
        Alcotest.test_case "tune trace passes schema validation" `Quick test_tune_trace_schema;
        Alcotest.test_case "rate spans are named rate:<M>:<digest>:a0" `Quick
          test_rate_span_names;
      ] );
  ]
