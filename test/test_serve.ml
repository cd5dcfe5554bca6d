(* The tuning service: wire codecs, framing, admission control, and the
   daemon's lifecycle (concurrency, saturation, cancel, stop/resume).

   The lifecycle tests run a real daemon on a Unix socket in a temp
   directory and hold its results to the same differential oracle as
   the batch paths: byte-identical to a [-j 1] library run with a
   store. *)

open Peak_machine
open Peak_workload
open Peak
open Peak_serve

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_name = Test_store.gen_name

let gen_nonneg_finite =
  QCheck.Gen.map (fun f -> Float.abs (if Float.is_finite f then f else 0x1.fp1023))
    Test_store.gen_float

let gen_mode = QCheck.Gen.oneofl [ Wire.Detach; Wire.Wait; Wire.Stream ]

let gen_submit_spec =
  QCheck.Gen.(
    map
      (fun ((b, m), (d, s), (r, seed), (cap, mode)) ->
        {
          Wire.sb_benchmark = b;
          sb_machine = m;
          sb_dataset = d;
          sb_search = s;
          sb_method = r;
          sb_seed = seed;
          sb_cap = cap;
          sb_mode = mode;
        })
      (tup4 (pair gen_name gen_name) (pair gen_name gen_name)
         (pair gen_name small_signed_int)
         (pair (option (int_range 1 1000)) gen_mode)))

let gen_request =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun sp -> Wire.Submit sp) gen_submit_spec);
        ( 2,
          map
            (fun (id, mode) -> Wire.Resume { rs_id = id; rs_mode = mode })
            (pair gen_name gen_mode) );
        (1, map (fun id -> Wire.Status_of id) gen_name);
        (1, map (fun id -> Wire.Stream_of id) gen_name);
        (1, map (fun id -> Wire.Cancel_of id) gen_name);
        (1, return Wire.Stats_req);
        (1, return Wire.Ping);
      ])

let arb_request =
  QCheck.make
    ~print:(fun r -> Peak_store.Json.to_string (Wire.request_to_json r))
    gen_request

let gen_state =
  QCheck.Gen.oneofl [ Wire.Running; Wire.Done; Wire.Failed; Wire.Cancelled; Wire.Idle ]

let gen_response =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map
            (fun (id, n) -> Wire.Accepted { ac_id = id; ac_resumed = n })
            (pair gen_name small_nat) );
        ( 2,
          map
            (fun (id, ra) -> Wire.Rejected { rj_id = id; rj_retry_after = ra })
            (pair gen_name gen_nonneg_finite) );
        ( 2,
          map
            (fun ((id, st), n) ->
              Wire.Status_r { st_id = id; st_state = st; st_ratings = n })
            (pair (pair gen_name gen_state) small_nat) );
        ( 2,
          map
            (fun (id, r) -> Wire.Result_r { rr_id = id; rr_result = r })
            (pair gen_name Test_store.gen_session_result) );
        (1, map (fun id -> Wire.Cancel_ack id) gen_name);
        ( 2,
          map
            (fun ((a, c), (d, (r, j))) ->
              Wire.Stats_r
                {
                  Wire.ss_active = a;
                  ss_capacity = c;
                  ss_completed = d;
                  ss_rejected = r;
                  ss_domains = j;
                })
            (pair (pair small_nat small_nat) (pair small_nat (pair small_nat small_nat)))
        );
        (1, return Wire.Pong);
        (1, map (fun e -> Wire.Error_r e) gen_name);
      ])

let arb_response =
  QCheck.make
    ~print:(fun r -> Peak_store.Json.to_string (Wire.response_to_json r))
    gen_response

let gen_args = QCheck.Gen.(list_size (int_bound 4) (pair gen_name gen_name))

let gen_event =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map
            (fun (n, a) -> Wire.Ev_instant { ei_name = n; ei_args = a })
            (pair gen_name gen_args) );
        ( 2,
          map
            (fun (n, v) -> Wire.Ev_counter { ec_name = n; ec_value = v })
            (pair gen_name small_signed_int) );
        ( 2,
          map
            (fun ((n, d), a) -> Wire.Ev_span { es_name = n; es_dur = d; es_args = a })
            (pair (pair gen_name gen_nonneg_finite) gen_args) );
      ])

let arb_event =
  QCheck.make ~print:(fun e -> Peak_store.Json.to_string (Wire.event_to_json e)) gen_event

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

(* Like the store codec suites: round-trip through the printed line,
   because NDJSON text is what actually crosses the socket. *)
let roundtrip to_json of_json v =
  match Peak_store.Json.of_string (Peak_store.Json.to_string (to_json v)) with
  | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
  | Ok j -> (
      match of_json j with
      | Ok v' -> v' = v
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let roundtrip_tests =
  [
    QCheck.Test.make ~count:200 ~name:"request round-trips" arb_request
      (roundtrip Wire.request_to_json Wire.request_of_json);
    QCheck.Test.make ~count:200 ~name:"response round-trips" arb_response
      (roundtrip Wire.response_to_json Wire.response_of_json);
    QCheck.Test.make ~count:200 ~name:"event round-trips" arb_event
      (roundtrip Wire.event_to_json Wire.event_of_json);
  ]

let decode_rejects () =
  let open Peak_store in
  let bad j label =
    match Wire.request_of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected a decode error" label
  in
  bad (Json.Obj [ ("v", Json.Int 99); ("t", Json.String "req"); ("op", Json.String "ping") ])
    "future protocol version";
  bad (Json.Obj [ ("v", Json.Int 1); ("t", Json.String "resp"); ("op", Json.String "ping") ])
    "wrong frame tag";
  bad (Json.Obj [ ("v", Json.Int 1); ("t", Json.String "req"); ("op", Json.String "levitate") ])
    "unknown op";
  bad (Json.Int 42) "not an object";
  (match
     Wire.response_of_json
       (Json.Obj
          [
            ("v", Json.Int 1); ("t", Json.String "resp"); ("r", Json.String "rejected");
            ("id", Json.String "x");
            ("retry_after", Codec.float_to_json (-1.0));
          ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative retry_after: expected a decode error");
  match Wire.endpoint_of_string "carrier-pigeon:coop" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad endpoint: expected a parse error"

let endpoint_roundtrip () =
  List.iter
    (fun s ->
      match Wire.endpoint_of_string s with
      | Ok e -> Alcotest.(check string) s s (Wire.endpoint_to_string e)
      | Error e -> Alcotest.failf "%s: %s" s e)
    [ "unix:/tmp/x.sock"; "tcp:localhost:7070"; "tcp:127.0.0.1:1" ]

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let frame_smoke () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let r = Wire.reader_of_fd a in
      (* a garbage line is a typed, recoverable error; the frames around
         it still parse; empty lines are skipped *)
      Wire.write_frame b (Wire.request_to_json Wire.Ping);
      write_all b "this is not json\n";
      write_all b "\n";
      Wire.write_frame b (Wire.request_to_json Wire.Stats_req);
      (match Wire.read_frame r with
      | `Frame j -> (
          match Wire.request_of_json j with
          | Ok Wire.Ping -> ()
          | _ -> Alcotest.fail "expected ping")
      | _ -> Alcotest.fail "expected a frame");
      (match Wire.read_frame r with
      | `Malformed _ -> ()
      | _ -> Alcotest.fail "expected a malformed frame");
      (match Wire.read_frame r with
      | `Frame j -> (
          match Wire.request_of_json j with
          | Ok Wire.Stats_req -> ()
          | _ -> Alcotest.fail "expected stats")
      | _ -> Alcotest.fail "expected a frame after the malformed line");
      (* a truncated final frame reads as malformed, then EOF *)
      write_all b "{\"v\":1";
      Unix.close b;
      (match Wire.read_frame r with
      | `Malformed _ -> ()
      | _ -> Alcotest.fail "expected a truncated-frame error");
      match Wire.read_frame r with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected eof")

let frame_overflow () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let r = Wire.reader_of_fd a in
      let writer =
        Thread.create
          (fun () ->
            let chunk = String.make 65536 'x' in
            try
              for _ = 1 to (Wire.max_frame / 65536) + 2 do
                write_all b chunk
              done;
              write_all b "\n"
            with Unix.Unix_error _ -> ())
          ()
      in
      (match Wire.read_frame r with
      | `Overflow -> ()
      | _ -> Alcotest.fail "expected overflow");
      Thread.join writer)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let admit adm =
  match Admission.try_admit adm with
  | Admission.Admitted tk -> tk
  | Admission.Saturated _ -> Alcotest.fail "admit rejected"

let admission_bounds () =
  let adm = Admission.create ~capacity:2 ~quantum:8 in
  let tk1 = admit adm in
  let _tk2 = admit adm in
  (match Admission.try_admit adm with
  | Admission.Saturated ra ->
      Alcotest.(check bool) "retry-after positive" true (ra > 0.0)
  | Admission.Admitted _ -> Alcotest.fail "over-capacity admit accepted");
  Admission.release adm tk1 ~wall:0.1;
  Admission.release adm tk1 ~wall:0.1 (* idempotent *);
  ignore (admit adm);
  let s = Admission.stats adm in
  Alcotest.(check int) "active" 2 s.Admission.a_active;
  Alcotest.(check int) "completed" 1 s.Admission.a_completed;
  Alcotest.(check int) "rejected" 1 s.Admission.a_rejected

(* [Admission.charge] pauses by parking its pool job, so each charge
   below runs as a job on a one-domain pool with one runner thread.
   Jobs start in submission order, so a probe job queued behind a charge
   runs once that charge has returned or parked, and tells which: the
   charge returns whether it returned at once, and a flag that turns
   true when it returns. *)
let with_charger f =
  Test_pool.with_runner (Peak_util.Pool.create ~domains:1) @@ fun pool ->
  let charge ?(abort = fun () -> false) adm tk fresh =
    let returned = Atomic.make false in
    ignore
      (Peak_util.Pool.submit pool (fun () ->
           Admission.charge adm tk ~abort ~fresh;
           Atomic.set returned true));
    (Test_pool.await (Test_pool.submit_cell pool (fun () -> Atomic.get returned)), returned)
  in
  f charge

let resumed what flag = Test_pool.wait_until ~secs:10.0 what (fun () -> Atomic.get flag)

let admission_fair_share () =
  with_charger @@ fun charge ->
  let adm = Admission.create ~capacity:4 ~quantum:8 in
  let ahead = admit adm and behind = admit adm in
  (* the least-advanced session never parks, whatever its count *)
  Alcotest.(check bool) "the least-advanced charge returns" true (fst (charge adm behind 0));
  (* 100 fresh vs 0: over budget — parks until [behind] catches up or
     leaves *)
  let at_once, over = charge adm ahead 100 in
  Alcotest.(check bool) "an over-budget charge parks" false at_once;
  Admission.release adm behind ~wall:0.01;
  resumed "a release resumes the parked charge" over;
  (* an abort predicate resumes a parked charge when kicked; [b2] joins
     at [ahead]'s 100 *)
  let b2 = admit adm in
  Alcotest.(check bool) "a newcomer's charge returns" true (fst (charge adm b2 0));
  let cancelled = Atomic.make false in
  let at_once, parked = charge ~abort:(fun () -> Atomic.get cancelled) adm ahead 300 in
  Alcotest.(check bool) "300 against 100 parks" false at_once;
  Atomic.set cancelled true;
  Admission.kick adm;
  resumed "a kick resumes an aborted charge" parked;
  (* close resumes everything still parked *)
  let at_once, parked2 = charge adm ahead 500 in
  Alcotest.(check bool) "500 against 100 parks" false at_once;
  Admission.close adm;
  resumed "close resumes every parked charge" parked2;
  match Admission.try_admit adm with
  | Admission.Saturated _ -> ()
  | Admission.Admitted _ -> Alcotest.fail "admit after close accepted"

(* A newcomer joins the band at its minimum, not at zero, so a session
   far ahead of an empty band keeps its quantum of headroom. *)
let admission_joins_at_minimum () =
  with_charger @@ fun charge ->
  let adm = Admission.create ~capacity:2 ~quantum:64 in
  let first = admit adm in
  Alcotest.(check bool) "alone, a session never parks" true (fst (charge adm first 1_000));
  let _newcomer = admit adm in
  Alcotest.(check bool) "a quantum past the newcomer's join returns" true
    (fst (charge adm first 1_064));
  let at_once, parked = charge adm first 1_065 in
  Alcotest.(check bool) "one rating past that parks" false at_once;
  Admission.close adm;
  resumed "close resumes it" parked

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let start_daemon ?(max_sessions = 4) ?(domains = 2) ?(quantum = 64) store =
  let endpoint = Wire.Unix_sock (Filename.concat store "peak-tuned.sock") in
  match Daemon.create { Daemon.store; endpoint; domains; max_sessions; quantum } with
  | Error e -> Alcotest.failf "daemon: %s" e
  | Ok d -> (d, Thread.create Daemon.serve d, endpoint)

let stop_daemon (d, th, _) =
  Daemon.stop d;
  Thread.join th

let connect endpoint =
  match Client.connect endpoint with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let cheap_spec ?(mode = Wire.Wait) seed =
  {
    Wire.sb_benchmark = "ART";
    sb_machine = "pentium4";
    sb_dataset = "train";
    sb_search = "be";
    sb_method = "rbr";
    sb_seed = seed;
    sb_cap = Some 40;
    sb_mode = mode;
  }

(* ~1.5 s solo: long enough to stop the daemon mid-flight *)
let slow_spec ?(mode = Wire.Wait) seed =
  {
    Wire.sb_benchmark = "SWIM";
    sb_machine = "pentium4";
    sb_dataset = "train";
    sb_search = "random2000";
    sb_method = "rbr";
    sb_seed = seed;
    sb_cap = Some 100;
    sb_mode = mode;
  }

(* The [-j 1] batch-library reference for a spec, through a store — the
   bit-identity baseline the daemon must match. *)
let reference_result dir (sp : Wire.submit_spec) =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let b = Option.get (Registry.by_name sp.Wire.sb_benchmark) in
  let machine = ok (Machine.of_string sp.Wire.sb_machine) in
  let strategy = ok (Strategy.of_string sp.Wire.sb_search) in
  let method_ = ok (Method.request_of_string sp.Wire.sb_method) in
  let params =
    match sp.Wire.sb_cap with
    | None -> Rating.default_params
    | Some n -> { Rating.default_params with Rating.max_invocations = n }
  in
  let meta =
    Driver.session_meta ?method_ ~strategy ~rating_params:params ~seed:sp.Wire.sb_seed b
      machine Trace.Train
  in
  Peak_util.Pool.run ~domains:1 (fun pool ->
      match Peak_store.Session.open_ ~dir ~meta () with
      | Error e -> Alcotest.failf "reference open: %s" e
      | Ok session ->
          Fun.protect
            ~finally:(fun () -> Peak_store.Session.close session)
            (fun () ->
              Driver.result_summary
                (Driver.tune ~seed:sp.Wire.sb_seed ~strategy ~rating_params:params ?method_
                   ~pool ~store:session b machine Trace.Train)))

let daemon_serves_batch_identical () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let d = start_daemon store in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let _, _, endpoint = d in
  (* two concurrent tenants, distinct seeds *)
  let results = Array.make 2 None in
  let clients =
    List.init 2 (fun i ->
        Thread.create
          (fun () ->
            let c = connect endpoint in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                results.(i) <- Some (Client.run c (Wire.Submit (cheap_spec (30 + i))))))
          ())
  in
  List.iter Thread.join clients;
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok (Client.Finished { resumed; result; _ })) ->
          Alcotest.(check int) "fresh session: nothing replayed" 0 resumed;
          let refdir = Filename.concat dir (Printf.sprintf "ref%d" i) in
          Oracles.check_identical_summary
            (Printf.sprintf "daemon vs -j 1 batch (seed %d)" (30 + i))
            (reference_result refdir (cheap_spec (30 + i)))
            result
      | Some (Ok _) -> Alcotest.fail "expected Finished"
      | Some (Error e) -> Alcotest.failf "client %d: %s" i e
      | None -> Alcotest.fail "client did not run")
    results

let daemon_streams_progress () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let d = start_daemon store in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let _, _, endpoint = d in
  let c = connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let counters = ref 0 and spans = ref 0 and last = ref 0 in
  let on_event = function
    | Wire.Ev_counter { ec_name = "session.ratings"; ec_value } ->
        incr counters;
        Alcotest.(check bool) "ratings monotonic" true (ec_value > !last);
        last := ec_value
    | Wire.Ev_counter _ | Wire.Ev_instant _ -> ()
    | Wire.Ev_span _ -> incr spans
  in
  match Client.run ~on_event c (Wire.Submit (cheap_spec ~mode:Wire.Stream 31)) with
  | Ok (Client.Finished { result; _ }) ->
      Alcotest.(check bool) "saw progress counters" true (!counters > 0);
      Alcotest.(check int) "saw the closing span" 1 !spans;
      Alcotest.(check int) "counter reached the final count" result.Peak_store.Codec.r_ratings !last
  | Ok _ -> Alcotest.fail "expected Finished"
  | Error e -> Alcotest.fail e

let daemon_rejects_when_saturated () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let d = start_daemon ~max_sessions:1 store in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let _, _, endpoint = d in
  let c = connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match Client.run c (Wire.Submit (slow_spec ~mode:Wire.Detach 40)) with
  | Ok (Client.Accepted_only _) -> ()
  | Ok _ -> Alcotest.fail "expected detached acceptance"
  | Error e -> Alcotest.fail e);
  (* the slot is taken: a second tenant must be rejected with a
     retry-after hint, not queued *)
  (match Client.run c (Wire.Submit (cheap_spec 41)) with
  | Ok (Client.Saturated retry_after) ->
      Alcotest.(check bool) "retry-after positive" true (retry_after > 0.0)
  | Ok _ -> Alcotest.fail "expected saturation"
  | Error e -> Alcotest.fail e);
  (* a duplicate submit of the RUNNING session attaches instead of
     being rejected *)
  (match Client.run c (Wire.Submit (slow_spec ~mode:Wire.Detach 40)) with
  | Ok (Client.Accepted_only _) -> ()
  | Ok _ -> Alcotest.fail "expected attach to the running session"
  | Error e -> Alcotest.fail e);
  (* cancel frees the slot; the cancelled session reports a typed error *)
  let id = "swim-pentium_iv-train-random2000-rbr-s40" in
  (match Client.request c (Wire.Cancel_of id) with
  | Ok (Wire.Cancel_ack id') -> Alcotest.(check string) "ack id" id id'
  | Ok _ -> Alcotest.fail "expected cancel ack"
  | Error e -> Alcotest.fail e);
  let rec await_free tries =
    if tries = 0 then Alcotest.fail "cancel never freed the admission slot"
    else
      match Client.run c (Wire.Submit (cheap_spec 41)) with
      | Ok (Client.Saturated _) ->
          Thread.delay 0.02;
          await_free (tries - 1)
      | Ok (Client.Finished _) -> ()
      | Ok _ -> Alcotest.fail "expected Finished"
      | Error e -> Alcotest.fail e
  in
  await_free 200

let daemon_stop_resume_identical () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let sp = slow_spec 42 in
  let d1 = start_daemon store in
  let id =
    let _, _, endpoint = d1 in
    let c = connect endpoint in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let id =
      match Client.run c (Wire.Submit { sp with Wire.sb_mode = Wire.Detach }) with
      | Ok (Client.Accepted_only { id; resumed }) ->
          Alcotest.(check int) "fresh session" 0 resumed;
          id
      | Ok _ -> Alcotest.fail "expected detached acceptance"
      | Error e -> Alcotest.fail e
    in
    (* wait until some ratings are journaled, so the stop is mid-session *)
    let rec await_progress tries =
      if tries = 0 then Alcotest.fail "session never made progress"
      else
        match Client.request c (Wire.Status_of id) with
        | Ok (Wire.Status_r { st_ratings; _ }) when st_ratings > 0 -> ()
        | Ok _ ->
            Thread.delay 0.01;
            await_progress (tries - 1)
        | Error e -> Alcotest.fail e
    in
    await_progress 1000;
    id
  in
  (* SIGTERM equivalent: drain with the session in flight *)
  stop_daemon d1;
  (* the interrupted session is visible, resumable, and not torn *)
  (match Peak_store.Session.load_info ~dir:store ~id with
  | Ok info ->
      Alcotest.(check bool) "no result yet" true (info.Peak_store.Session.info_result = None);
      Alcotest.(check bool) "no live writer after drain" false
        info.Peak_store.Session.info_live;
      Alcotest.(check bool) "some events journaled" true
        (info.Peak_store.Session.info_events > 0)
  | Error e -> Alcotest.failf "load_info: %s" e);
  let d2 = start_daemon store in
  Fun.protect ~finally:(fun () -> stop_daemon d2) @@ fun () ->
  let _, _, endpoint = d2 in
  let c = connect endpoint in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.run c (Wire.Resume { rs_id = id; rs_mode = Wire.Wait }) with
  | Ok (Client.Finished { resumed; result; _ }) ->
      Alcotest.(check bool) "journal replayed on resume" true (resumed > 0);
      let refdir = Filename.concat dir "ref" in
      Oracles.check_identical_summary "stop/restart/resume vs uninterrupted"
        (reference_result refdir sp) result
  | Ok _ -> Alcotest.fail "expected Finished"
  | Error e -> Alcotest.fail e

(* Run [f]; a watchdog stops [daemon] if [f] has not returned after
   [secs], so that a stalled session fails its case instead of hanging
   the suite.  Returns [f]'s value and whether the watchdog fired. *)
let under_watchdog daemon secs f =
  let finished = Atomic.make false and fired = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. secs in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get finished) then begin
          Atomic.set fired true;
          Daemon.stop daemon
        end)
      ()
  in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set finished true;
        Thread.join watchdog)
      f
  in
  (r, Atomic.get fired)

(* [client submit SWIM -s ie --seed N]: auto picks CBR on sparc2, 75
   fresh ratings *)
let swim_ie_spec seed =
  {
    Wire.sb_benchmark = "SWIM";
    sb_machine = "sparc2";
    sb_dataset = "train";
    sb_search = "ie";
    sb_method = "auto";
    sb_seed = seed;
    sb_cap = None;
    sb_mode = Wire.Wait;
  }

(* One domain runs one session at a time, so two of the three admitted
   sessions wait for it, holding the fair-share minimum at zero: the
   running session parks at fresh 3.  Were a parked session to keep its
   domain, none would finish: a watchdog stops the daemon after 60 s and
   fails the case. *)
let daemon_parked_session_frees_domain () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let ((daemon, _, endpoint) as d) = start_daemon ~domains:1 ~max_sessions:3 ~quantum:2 store in
  let results = Array.make 3 None in
  let clients =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            let c = connect endpoint in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> results.(i) <- Some (Client.run c (Wire.Submit (swim_ie_spec (i + 1))))))
          ())
  in
  let (), stalled = under_watchdog daemon 60.0 (fun () -> List.iter Thread.join clients) in
  stop_daemon d;
  if stalled then Alcotest.fail "sessions stalled on parked ones (60 s)";
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok (Client.Finished { result; _ })) ->
          Alcotest.(check int) "all fresh ratings" 75 result.Peak_store.Codec.r_ratings;
          let refdir = Filename.concat dir (Printf.sprintf "ref%d" i) in
          Oracles.check_identical_summary
            (Printf.sprintf "daemon vs batch (seed %d)" (i + 1))
            (reference_result refdir (swim_ie_spec (i + 1)))
            result
      | Some (Ok _) -> Alcotest.fail "expected Finished"
      | Some (Error e) -> Alcotest.failf "client %d: %s" i e
      | None -> Alcotest.fail "client did not run")
    results

(* The session [sp] detached, once it has rated: it then holds a domain. *)
let running c sp =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  match ok (Client.run c (Wire.Submit { sp with Wire.sb_mode = Wire.Detach })) with
  | Client.Accepted_only { id; _ } ->
      let rec await_progress tries =
        if tries = 0 then Alcotest.fail "session never made progress"
        else
          match ok (Client.request c (Wire.Status_of id)) with
          | Wire.Status_r { st_ratings; _ } when st_ratings > 0 -> ()
          | _ ->
              Thread.delay 0.01;
              await_progress (tries - 1)
      in
      await_progress 1000;
      id
  | _ -> Alcotest.fail "expected detached acceptance"

let state_of c id =
  match Client.request c (Wire.Status_of id) with
  | Ok (Wire.Status_r { st_state; _ }) -> st_state
  | Ok _ -> Alcotest.fail "expected a status"
  | Error e -> Alcotest.fail e

let cancel c id =
  match Client.request c (Wire.Cancel_of id) with
  | Ok (Wire.Cancel_ack _) -> ()
  | _ -> Alcotest.fail "expected cancel ack"

(* On one domain with the default quantum, a long session more than 64
   fresh ratings ahead of a cheap newcomer parks and gives the domain
   to it, so the cheap session finishes, bit-identical to batch, while
   the long one is still running. *)
let daemon_cheap_overtakes_long () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let ((daemon, _, endpoint) as d) = start_daemon ~domains:1 store in
  let c = connect endpoint in
  Fun.protect ~finally:(fun () ->
      Client.close c;
      stop_daemon d)
  @@ fun () ->
  let long = running c (slow_spec 60) in
  let c2 = connect endpoint in
  let cheap, stalled =
    under_watchdog daemon 60.0 (fun () ->
        Fun.protect
          ~finally:(fun () -> Client.close c2)
          (fun () -> Client.run c2 (Wire.Submit (cheap_spec 61))))
  in
  if stalled then Alcotest.fail "the cheap session waited for a parked one (60 s)";
  Alcotest.(check bool) "the long session is still running" true (state_of c long = Wire.Running);
  (match cheap with
  | Ok (Client.Finished { result; _ }) ->
      Oracles.check_identical_summary "cheap session vs batch"
        (reference_result (Filename.concat dir "ref") (cheap_spec 61))
        result
  | Ok _ -> Alcotest.fail "expected Finished"
  | Error e -> Alcotest.fail e);
  cancel c long

(* A session cancelled while it waits for the only domain ends at once,
   and its id can be submitted again; one still waiting when the daemon
   stops ends before its profile runs.  The quantum is too large for the
   running sessions ever to park, so the waiting ones stay waiting.  The
   trace holds one tune (and one profile) per session that ran, and
   every queue span is closed. *)
let daemon_aborts_queued_sessions () =
  Oracles.with_tmpdir @@ fun dir ->
  Peak_obs.install ();
  Fun.protect ~finally:Peak_obs.uninstall @@ fun () ->
  let store = Filename.concat dir "store" in
  let ((_, _, endpoint) as d) =
    start_daemon ~domains:1 ~max_sessions:3 ~quantum:1_000_000 store
  in
  let c = connect endpoint in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      if not !stopped then stop_daemon d)
  @@ fun () ->
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let a = running c (slow_spec 50) in
  let queued_result = ref None in
  let waiter =
    Thread.create
      (fun () ->
        let c2 = connect endpoint in
        Fun.protect
          ~finally:(fun () -> Client.close c2)
          (fun () -> queued_result := Some (Client.run c2 (Wire.Submit (cheap_spec 51)))))
      ()
  in
  let queued_id = "art-pentium_iv-train-be-rbr-s51" in
  let rec await_admitted tries =
    if tries = 0 then Alcotest.fail "the queued session was never admitted"
    else
      match ok (Client.request c (Wire.Status_of queued_id)) with
      | Wire.Status_r { st_state = Wire.Running; _ } -> ()
      | _ ->
          Thread.delay 0.01;
          await_admitted (tries - 1)
  in
  await_admitted 1000;
  let active () =
    match ok (Client.request c Wire.Stats_req) with
    | Wire.Stats_r { ss_active; _ } -> ss_active
    | _ -> Alcotest.fail "expected stats"
  in
  Alcotest.(check int) "both sessions hold a slot" 2 (active ());
  cancel c queued_id;
  (* the cancel that withdrew the queued job ended the session *)
  Alcotest.(check int) "the withdrawn session's slot is free at once" 1 (active ());
  Thread.join waiter;
  (match !queued_result with
  | Some (Error e) ->
      Alcotest.(check bool)
        (Printf.sprintf "cancelled while queued (%s)" e)
        true
        (Oracles.contains ~sub:"cancelled: cancelled" e)
  | _ -> Alcotest.fail "the cancelled queued session must end in an error");
  Alcotest.(check bool) "ended before the running session gave up the domain" true
    (state_of c a = Wire.Running);
  (* the cancelled id runs again once resubmitted *)
  (match ok (Client.run c (Wire.Submit (cheap_spec ~mode:Wire.Detach 51))) with
  | Client.Accepted_only { id; _ } -> Alcotest.(check string) "same id" queued_id id
  | _ -> Alcotest.fail "expected the resubmit to be accepted");
  cancel c a;
  (match ok (Client.run c (Wire.Submit (cheap_spec 51))) with
  | Client.Finished { result; _ } ->
      Oracles.check_identical_summary "resubmitted session vs batch"
        (reference_result (Filename.concat dir "ref") (cheap_spec 51))
        result
  | _ -> Alcotest.fail "expected the resubmitted session to finish");
  (* stop: a session admitted behind a running one ends at drain *)
  let _ = running c (slow_spec 52) in
  (match ok (Client.run c (Wire.Submit (cheap_spec ~mode:Wire.Detach 53))) with
  | Client.Accepted_only _ -> ()
  | _ -> Alcotest.fail "expected detached acceptance");
  stopped := true;
  stop_daemon d;
  let s = Option.get (Peak_obs.snapshot ()) in
  let spans cat =
    match List.assoc_opt cat s.Peak_obs.span_stats with Some st -> st.Peak_obs.s_count | None -> 0
  in
  (* the batch references above tuned one more each *)
  Alcotest.(check int) "only the sessions that ran tuned" 4 (spans "tune");
  Alcotest.(check int) "only the sessions that ran profiled" 4 (spans "phase.profile");
  Alcotest.(check int) "every admitted session's queue span closed" 5 (spans "serve.queue");
  Alcotest.(check int) "no span left open" 0 s.Peak_obs.open_spans;
  match Peak_store.Session.load_info ~dir:store ~id:"art-pentium_iv-train-be-rbr-s53" with
  | Ok info ->
      Alcotest.(check int) "the stopped queued session journaled nothing" 0
        info.Peak_store.Session.info_events;
      Alcotest.(check bool) "and is not done" true (info.Peak_store.Session.info_result = None)
  | Error e -> Alcotest.fail e

(* The registry holds only running sessions; an ended one's status comes
   from the store: [done] with its result for a completed session, and
   [idle] for a cancelled one, both with the journal's rating count. *)
let daemon_reads_ended_sessions_from_store () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let d = start_daemon store in
  let _, _, endpoint = d in
  let c = connect endpoint in
  Fun.protect ~finally:(fun () ->
      Client.close c;
      stop_daemon d)
  @@ fun () ->
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let journaled id =
    (ok (Peak_store.Session.load_info ~dir:store ~id)).Peak_store.Session.info_events
  in
  let status id =
    match ok (Client.request c (Wire.Status_of id)) with
    | Wire.Status_r st -> st
    | _ -> Alcotest.fail "expected a status"
  in
  let id, result =
    match ok (Client.run c (Wire.Submit (cheap_spec 70))) with
    | Client.Finished { id; result; _ } -> (id, result)
    | _ -> Alcotest.fail "expected Finished"
  in
  let st = status id in
  Alcotest.(check string) "a completed session reads done" "done"
    (Wire.state_to_string st.Wire.st_state);
  Alcotest.(check int) "with its journal's count" (journaled id) st.Wire.st_ratings;
  (match ok (Client.request c (Wire.Stream_of id)) with
  | Wire.Result_r { rr_result; _ } ->
      Oracles.check_identical_summary "streamed from the store" result rr_result
  | _ -> Alcotest.fail "expected the stored result");
  let long = running c (slow_spec 71) in
  cancel c long;
  let rec await_idle tries =
    if tries = 0 then Alcotest.fail "the cancelled session never read idle"
    else
      let st = status long in
      if st.Wire.st_state = Wire.Idle then st
      else begin
        Thread.delay 0.01;
        await_idle (tries - 1)
      end
  in
  let st = await_idle 3000 in
  Alcotest.(check bool) "the cancelled session journaled ratings" true (st.Wire.st_ratings > 0);
  Alcotest.(check int) "it reads idle with its journal's count" (journaled long)
    st.Wire.st_ratings

let daemon_survives_malformed_frames () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let d = start_daemon store in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  let sock = Filename.concat store "peak-tuned.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let r = Wire.reader_of_fd fd in
  let expect_error label =
    match Wire.read_frame r with
    | `Frame j -> (
        match Wire.response_of_json j with
        | Ok (Wire.Error_r _) -> ()
        | Ok _ -> Alcotest.failf "%s: expected a typed error" label
        | Error e -> Alcotest.failf "%s: %s" label e)
    | _ -> Alcotest.failf "%s: expected a response frame" label
  in
  write_all fd "complete garbage\n";
  expect_error "garbage line";
  write_all fd "{\"v\":1,\"t\":\"req\",\"op\":\"levitate\"}\n";
  expect_error "unknown op";
  write_all fd "{\"v\":99,\"t\":\"req\",\"op\":\"ping\"}\n";
  expect_error "future version";
  (* the connection is still usable afterwards *)
  Wire.write_frame fd (Wire.request_to_json Wire.Ping);
  match Wire.read_frame r with
  | `Frame j -> (
      match Wire.response_of_json j with
      | Ok Wire.Pong -> ()
      | _ -> Alcotest.fail "expected pong after the malformed frames")
  | _ -> Alcotest.fail "expected a pong frame"

let store_lock_is_exclusive () =
  Oracles.with_tmpdir @@ fun dir ->
  let store = Filename.concat dir "store" in
  let d = start_daemon store in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  match
    Daemon.create
      {
        Daemon.store;
        endpoint = Wire.Unix_sock (Filename.concat dir "other.sock");
        domains = 1;
        max_sessions = 1;
        quantum = 64;
      }
  with
  | Error e ->
      Alcotest.(check bool) "error names the store" true (Oracles.contains ~sub:store e)
  | Ok _ -> Alcotest.fail "second daemon on the same store must be refused"

(* ------------------------------------------------------------------ *)
(* Session writer liveness (the .writer pidfile)                       *)
(* ------------------------------------------------------------------ *)

let writer_liveness () =
  Oracles.with_tmpdir @@ fun dir ->
  let b = Option.get (Registry.by_name "ART") in
  let meta = Driver.session_meta b Machine.pentium4 Trace.Train in
  let id = meta.Peak_store.Codec.m_id in
  let s =
    match Peak_store.Session.open_ ~dir ~meta () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "held session is live" true (Peak_store.Session.live ~dir ~id);
  (* the single-writer rule: a second open of a held session fails *)
  (match Peak_store.Session.open_ ~dir ~meta () with
  | Error e ->
      Alcotest.(check bool) "error names the session" true (Oracles.contains ~sub:id e)
  | Ok _ -> Alcotest.fail "double open must be refused");
  (* session list on a held store works and flags the live session *)
  (match Peak_store.Session.list ~dir with
  | Ok [ info ] ->
      Alcotest.(check bool) "listed as live" true info.Peak_store.Session.info_live
  | Ok l -> Alcotest.failf "expected one session, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  Peak_store.Session.close s;
  Alcotest.(check bool) "closed session is not live" false
    (Peak_store.Session.live ~dir ~id);
  (* a dead writer's stale pidfile is reclaimed: reopening succeeds.
     (No fork — domains exist by now — so use a pid beyond pid_max,
     which kill reports as ESRCH exactly like an exited writer.) *)
  let dead_pid = 0x3FFFFFF in
  (match Unix.kill dead_pid 0 with
  | () -> Alcotest.fail "sentinel pid unexpectedly alive"
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> ()
  | exception Unix.Unix_error _ -> ());
  let pidfile =
    Filename.concat (Filename.concat (Filename.concat dir "sessions") id) ".writer"
  in
  let oc = open_out pidfile in
  output_string oc (string_of_int dead_pid);
  close_out oc;
  Alcotest.(check bool) "stale pidfile is not live" false
    (Peak_store.Session.live ~dir ~id);
  match Peak_store.Session.open_ ~dir ~meta () with
  | Ok s ->
      Peak_store.Session.close s
  | Error e -> Alcotest.failf "stale pidfile must be reclaimed: %s" e

let suites =
  [
    ( "serve.wire",
      List.map QCheck_alcotest.to_alcotest roundtrip_tests
      @ [
          Alcotest.test_case "decoders reject bad frames" `Quick decode_rejects;
          Alcotest.test_case "endpoints round-trip" `Quick endpoint_roundtrip;
          Alcotest.test_case "framing recovers from garbage" `Quick frame_smoke;
          Alcotest.test_case "oversized frames overflow" `Quick frame_overflow;
        ] );
    ( "serve.admission",
      [
        Alcotest.test_case "bounded in-flight with retry-after" `Quick admission_bounds;
        Alcotest.test_case "fair-share charge blocks and unblocks" `Quick
          admission_fair_share;
        Alcotest.test_case "a newcomer joins the band at its minimum" `Quick
          admission_joins_at_minimum;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "concurrent sessions match -j 1 batch" `Quick
          daemon_serves_batch_identical;
        Alcotest.test_case "stream mode reports progress" `Quick daemon_streams_progress;
        Alcotest.test_case "saturation rejects with retry-after" `Quick
          daemon_rejects_when_saturated;
        Alcotest.test_case "stop mid-session, restart, resume bit-identical" `Quick
          daemon_stop_resume_identical;
        Alcotest.test_case "a session over its fair share gives its domain back" `Quick
          daemon_parked_session_frees_domain;
        Alcotest.test_case "a cheap session overtakes a long one on one domain" `Quick
          daemon_cheap_overtakes_long;
        Alcotest.test_case "cancel or stop of a queued session skips its profile" `Quick
          daemon_aborts_queued_sessions;
        Alcotest.test_case "an ended session's status comes from the store" `Quick
          daemon_reads_ended_sessions_from_store;
        Alcotest.test_case "malformed frames get typed errors" `Quick
          daemon_survives_malformed_frames;
        Alcotest.test_case "one daemon per store" `Quick store_lock_is_exclusive;
      ] );
    ( "serve.liveness",
      [ Alcotest.test_case "writer pidfile discipline" `Quick writer_liveness ] );
  ]
