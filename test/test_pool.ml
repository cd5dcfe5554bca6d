(* Peak_util.Pool: the domain work-pool under the parallel tuning engine. *)

open Peak_util

exception Boom of int

let test_map_orders_results () =
  Pool.run ~domains:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let ys = Pool.map pool (fun x -> x * x) xs in
      Alcotest.(check (list int)) "squares in order" (List.map (fun x -> x * x) xs) ys)

let test_map_empty () =
  Pool.run ~domains:2 (fun pool ->
      Alcotest.(check (list int)) "empty batch" [] (Pool.map pool (fun x -> x) []))

let test_single_domain () =
  Pool.run ~domains:1 (fun pool ->
      Alcotest.(check (list int))
        "no workers: caller runs everything" [ 2; 4; 6 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_exception_propagates () =
  Pool.run ~domains:3 (fun pool ->
      match Pool.map pool (fun x -> if x mod 7 = 3 then raise (Boom x) else x) (List.init 40 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x ->
          (* first failure in submission order, not completion order *)
          Alcotest.(check int) "earliest failing element" 3 x)

let test_reusable_after_failure () =
  Pool.run ~domains:3 (fun pool ->
      (try ignore (Pool.map pool (fun _ -> raise (Boom 0)) [ 1; 2; 3 ]) with Boom _ -> ());
      let ys = Pool.map pool (fun x -> x + 1) [ 1; 2; 3 ] in
      Alcotest.(check (list int)) "pool still serves batches" [ 2; 3; 4 ] ys)

let test_nested_map () =
  (* a task that itself submits a batch to the same pool must not
     deadlock even when every worker is busy: submitters help drain the
     queue *)
  Pool.run ~domains:2 (fun pool ->
      let ys =
        Pool.map pool
          (fun x -> List.fold_left ( + ) 0 (Pool.map pool (fun y -> x * y) [ 1; 2; 3 ]))
          (List.init 8 Fun.id)
      in
      Alcotest.(check (list int))
        "inner batches complete" (List.init 8 (fun x -> 6 * x)) ys)

let test_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 in
  ignore (Pool.map pool Fun.id [ 1; 2 ]);
  Pool.shutdown pool;
  Pool.shutdown pool

let test_invalid_domains () =
  Alcotest.check_raises "domains:0 rejected" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0))

(* ---- jobs ---- *)

(* A thread that runs [Pool.work] until shutdown: the runner a daemon
   keeps on its main domain. *)
let with_runner pool f =
  let runner = Thread.create Pool.work pool in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      Thread.join runner)
    (fun () -> f pool)

(* Poll [ready] until it holds, failing after [secs]; [unstick] runs
   first, so that a runner a broken pool left blocked can return. *)
let wait_until ?(unstick = ignore) ~secs what ready =
  let deadline = Unix.gettimeofday () +. secs in
  while (not (ready ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  if not (ready ()) then begin
    unstick ();
    Alcotest.failf "%s: not after %.0f s" what secs
  end

(* Jobs carry no result: a test job fills a cell of its own. *)
let submit_cell pool f =
  let cell = Atomic.make None in
  ignore
    (Pool.submit pool (fun () ->
         Atomic.set cell (Some (match f () with v -> Ok v | exception e -> Error e))));
  cell

let await_all_within ?unstick secs cells =
  wait_until ?unstick ~secs "every job finished" (fun () ->
      List.for_all (fun c -> Option.is_some (Atomic.get c)) cells);
  List.map (fun c -> Option.get (Atomic.get c)) cells

let await cell =
  match await_all_within 10.0 [ cell ] with
  | [ Ok v ] -> v
  | [ Error e ] -> raise e
  | _ -> assert false

let test_jobs_without_workers () =
  with_runner (Pool.create ~domains:1) (fun pool ->
      let jobs =
        List.init 5 (fun i ->
            submit_cell pool (fun () -> List.fold_left ( + ) i (Pool.map pool Fun.id [ 1; 2; 3 ])))
      in
      Alcotest.(check (list int))
        "the main-domain runner ran every job" [ 6; 7; 8; 9; 10 ] (List.map await jobs))

(* Every job records, on its thread, how many jobs that thread is inside;
   its batches are slow enough that a job waiting in [map] sees the other
   jobs queued. *)
let test_jobs_never_nest () =
  let depth = Hashtbl.create 8 and deepest = ref 0 and lock = Mutex.create () in
  let key () = ((Domain.self () :> int), Thread.id (Thread.self ())) in
  let enter () =
    Mutex.protect lock (fun () ->
        let d = 1 + Option.value ~default:0 (Hashtbl.find_opt depth (key ())) in
        Hashtbl.replace depth (key ()) d;
        deepest := max !deepest d)
  and leave () =
    Mutex.protect lock (fun () -> Hashtbl.replace depth (key ()) (Hashtbl.find depth (key ()) - 1))
  in
  with_runner (Pool.create ~domains:3) (fun pool ->
      let job i () =
        enter ();
        Fun.protect ~finally:leave (fun () ->
            Pool.map pool
              (fun x ->
                Unix.sleepf 0.002;
                i + x)
              (List.init 6 Fun.id))
      in
      let jobs = List.init 8 (fun i -> submit_cell pool (job i)) in
      List.iteri
        (fun i j ->
          Alcotest.(check (list int)) "job result" (List.init 6 (fun x -> i + x)) (await j))
        jobs);
  Alcotest.(check int) "no thread ever runs a job inside a job" 1 !deepest

(* One runner: were the raise to end it, the job behind would never run. *)
let test_raising_job_keeps_runner () =
  with_runner (Pool.create ~domains:1) (fun pool ->
      ignore (Pool.submit pool (fun () -> raise (Boom 7)));
      Alcotest.(check int) "the job behind it runs" 3 (await (submit_cell pool (fun () -> 3))))

let test_shutdown_drops_queued_jobs () =
  (* no runner at all: the jobs stay queued until shutdown *)
  let pool = Pool.create ~domains:1 in
  let ran = Atomic.make false in
  let jobs = List.init 3 (fun _ -> Pool.submit pool (fun () -> Atomic.set ran true)) in
  Pool.shutdown pool;
  Alcotest.(check bool) "no dropped job is left to withdraw" false (List.exists Pool.cancel jobs);
  (* a runner started now finds nothing and returns *)
  Pool.work pool;
  Alcotest.(check bool) "no dropped job ran" false (Atomic.get ran);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

(* One runner: the parked job must hand it to the job queued behind it,
   which is the one that resumes it. *)
let test_park_frees_runner () =
  with_runner (Pool.create ~domains:1) (fun pool ->
      let resume_a = Atomic.make None in
      let a =
        submit_cell pool (fun () ->
            Pool.park (fun resume -> Atomic.set resume_a (Some resume));
            "a")
      in
      let b =
        submit_cell pool (fun () ->
            (Option.get (Atomic.get resume_a)) ();
            "b")
      in
      let unstick () = Option.iter (fun r -> r ()) (Atomic.get resume_a) in
      match await_all_within ~unstick 10.0 [ a; b ] with
      | [ Ok "a"; Ok "b" ] -> ()
      | _ -> Alcotest.fail "both jobs finish with their own values")

(* Jobs that park between rating-like batches continue on whichever
   runner takes them — three domains and a main-domain runner — with
   their stacks, handlers and results intact. *)
let test_parked_jobs_migrate () =
  let parked = Queue.create () and lock = Mutex.create () in
  with_runner (Pool.create ~domains:3) (fun pool ->
      let job i () =
        let acc = ref 0 in
        for round = 1 to 6 do
          acc := !acc + List.fold_left ( + ) 0 (Pool.map pool (fun x -> x * round) [ i; 1 ]);
          Fun.protect ~finally:ignore (fun () ->
              Pool.park (fun resume -> Mutex.protect lock (fun () -> Queue.push resume parked)))
        done;
        !acc
      in
      let jobs = List.init 8 (fun i -> submit_cell pool (job i)) in
      let finished = Atomic.make false in
      (* resume in arrival order from a thread outside the pool *)
      let resumer =
        Thread.create
          (fun () ->
            while not (Atomic.get finished) do
              match Mutex.protect lock (fun () -> Queue.take_opt parked) with
              | Some resume -> resume ()
              | None -> Thread.delay 0.001
            done)
          ()
      in
      let results =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set finished true;
            Thread.join resumer)
          (fun () -> await_all_within 20.0 jobs)
      in
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "job %d" i) ((i + 1) * 21) v
          | Error e -> Alcotest.failf "job %d raised %s" i (Printexc.to_string e))
        results)

let test_cancel_withdraws_queued_job () =
  let pool = Pool.create ~domains:1 in
  let ran = Atomic.make false in
  let withdrawn = Pool.submit pool (fun () -> Atomic.set ran true) in
  Alcotest.(check bool) "a queued job is withdrawn" true (Pool.cancel withdrawn);
  Alcotest.(check bool) "by the first cancel only" false (Pool.cancel withdrawn);
  with_runner pool (fun pool ->
      let value = Atomic.make 0 in
      let later = Pool.submit pool (fun () -> Atomic.set value 5) in
      wait_until ~secs:10.0 "the later job ran" (fun () -> Atomic.get value = 5);
      Alcotest.(check bool) "a started job is not withdrawn" false (Pool.cancel later));
  Alcotest.(check bool) "the withdrawn job never ran" false (Atomic.get ran)

(* A job parked at shutdown and resumed after it unwinds from its park:
   its finalisers run and the code after the park does not. *)
let test_resume_after_shutdown () =
  let pool = Pool.create ~domains:1 in
  let runner = Thread.create Pool.work pool in
  let resume = Atomic.make None and unwound = Atomic.make false in
  let continued = Atomic.make false in
  ignore
    (Pool.submit pool (fun () ->
         Fun.protect
           ~finally:(fun () -> Atomic.set unwound true)
           (fun () ->
             Pool.park (fun r -> Atomic.set resume (Some r));
             Atomic.set continued true)));
  wait_until ~secs:10.0 "the job parked" (fun () -> Option.is_some (Atomic.get resume));
  Pool.shutdown pool;
  (Option.get (Atomic.get resume)) ();
  Thread.join runner;
  Alcotest.(check bool) "the parked job unwound" true (Atomic.get unwound);
  Alcotest.(check bool) "past its park it never ran" false (Atomic.get continued)

let prop_map_matches_list_map =
  QCheck.Test.make ~count:50 ~name:"Pool.map agrees with List.map for any domain count"
    QCheck.(pair (int_range 1 5) (small_list small_int))
    (fun (domains, xs) ->
      Pool.run ~domains (fun pool -> Pool.map pool (fun x -> (3 * x) - 1) xs)
      = List.map (fun x -> (3 * x) - 1) xs)

let suites =
  [
    ( "util.pool",
      [
        Alcotest.test_case "map returns results in order" `Quick test_map_orders_results;
        Alcotest.test_case "map of empty list" `Quick test_map_empty;
        Alcotest.test_case "single domain works" `Quick test_single_domain;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "pool reusable after failed batch" `Quick test_reusable_after_failure;
        Alcotest.test_case "nested map does not deadlock" `Quick test_nested_map;
        Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
        Alcotest.test_case "invalid domain count" `Quick test_invalid_domains;
        Alcotest.test_case "jobs run on a pool with no worker domain" `Quick
          test_jobs_without_workers;
        Alcotest.test_case "a job never starts inside a job's batch" `Quick test_jobs_never_nest;
        Alcotest.test_case "a raising job leaves its runner running" `Quick
          test_raising_job_keeps_runner;
        Alcotest.test_case "shutdown drops the jobs still queued" `Quick
          test_shutdown_drops_queued_jobs;
        Alcotest.test_case "a parked job frees its runner" `Quick test_park_frees_runner;
        Alcotest.test_case "parked jobs continue on any runner" `Quick test_parked_jobs_migrate;
        Alcotest.test_case "cancel withdraws a job not yet started" `Quick
          test_cancel_withdraws_queued_job;
        Alcotest.test_case "a job resumed after shutdown unwinds from its park" `Quick
          test_resume_after_shutdown;
        QCheck_alcotest.to_alcotest prop_map_matches_list_map;
      ] );
  ]
