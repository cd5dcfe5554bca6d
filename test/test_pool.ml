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

let test_jobs_without_workers () =
  with_runner (Pool.create ~domains:1) (fun pool ->
      let jobs =
        List.init 5 (fun i ->
            Pool.submit pool (fun () -> List.fold_left ( + ) i (Pool.map pool Fun.id [ 1; 2; 3 ])))
      in
      Alcotest.(check (list int))
        "the main-domain runner ran every job" [ 6; 7; 8; 9; 10 ] (List.map Pool.await jobs))

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
      let jobs = List.init 8 (fun i -> Pool.submit pool (job i)) in
      List.iteri
        (fun i j ->
          Alcotest.(check (list int)) "job result" (List.init 6 (fun x -> i + x)) (Pool.await j))
        jobs);
  Alcotest.(check int) "no thread ever runs a job inside a job" 1 !deepest

let[@inline never] explode () = raise (Boom 7)

let test_job_exception () =
  Printexc.record_backtrace true;
  with_runner (Pool.create ~domains:1) (fun pool ->
      match Pool.await (Pool.submit pool explode) with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 7 ->
          let bt = Printexc.get_backtrace () in
          Alcotest.(check bool)
            (Printf.sprintf "backtrace names the raise (%s)" bt)
            true
            (Oracles.contains ~sub:"explode" bt));
  (* the runner survived the raising job *)
  with_runner (Pool.create ~domains:1) (fun pool ->
      Alcotest.(check int) "a later job runs" 3 (Pool.await (Pool.submit pool (fun () -> 3))))

let test_shutdown_fails_queued_jobs () =
  (* no runner at all: the jobs stay queued until shutdown *)
  let pool = Pool.create ~domains:1 in
  let outcomes = Array.make 3 None in
  let waiters =
    List.init 3 (fun i ->
        let job = Pool.submit pool (fun () -> i) in
        Thread.create
          (fun () ->
            outcomes.(i) <- Some (match Pool.await job with v -> Ok v | exception e -> Error e))
          ())
  in
  Thread.delay 0.02;
  Pool.shutdown pool;
  (* a waiter left blocked would hang a join: poll with a deadline *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Array.exists Option.is_none outcomes && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Array.iter
    (function
      | Some (Error (Failure _)) -> ()
      | _ -> Alcotest.fail "a job queued at shutdown must fail its waiter")
    outcomes;
  List.iter Thread.join waiters;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

(* Await [jobs] from helper threads, failing after [secs]; [unstick] runs
   first, so that a runner a broken pool left blocked can return. *)
let await_all_within ?(unstick = ignore) secs jobs =
  let results = Array.make (List.length jobs) None in
  let waiters =
    List.mapi
      (fun i j ->
        Thread.create
          (fun () -> results.(i) <- Some (match Pool.await j with v -> Ok v | exception e -> Error e))
          ())
      jobs
  in
  let deadline = Unix.gettimeofday () +. secs in
  while Array.exists Option.is_none results && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let timed_out = Array.exists Option.is_none results in
  if timed_out then unstick ();
  List.iter Thread.join waiters;
  if timed_out then Alcotest.failf "jobs unfinished after %.0f s" secs;
  Array.to_list results |> List.map Option.get

(* One runner: the parked job must hand it to the job queued behind it,
   which is the one that resumes it. *)
let test_park_frees_runner () =
  with_runner (Pool.create ~domains:1) (fun pool ->
      let resume_a = Atomic.make None in
      let a =
        Pool.submit pool (fun () ->
            Pool.park (fun resume -> Atomic.set resume_a (Some resume));
            "a")
      in
      let b =
        Pool.submit pool (fun () ->
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
      let jobs = List.init 8 (fun i -> Pool.submit pool (job i)) in
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
      let results = await_all_within 20.0 jobs in
      Atomic.set finished true;
      Thread.join resumer;
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> Alcotest.(check int) (Printf.sprintf "job %d" i) ((i + 1) * 21) v
          | Error e -> Alcotest.failf "job %d raised %s" i (Printexc.to_string e))
        results)

let test_park_outside_job_blocks () =
  let resume = Atomic.make None and returned = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Pool.park (fun r -> Atomic.set resume (Some r));
        Atomic.set returned true)
      ()
  in
  while Option.is_none (Atomic.get resume) do
    Thread.delay 0.001
  done;
  Thread.delay 0.02;
  Alcotest.(check bool) "blocked until resumed" false (Atomic.get returned);
  (Option.get (Atomic.get resume)) ();
  Thread.join th;
  Alcotest.(check bool) "returned once resumed" true (Atomic.get returned)

let test_cancel_withdraws_queued_job () =
  let pool = Pool.create ~domains:1 in
  let ran = Atomic.make false in
  let withdrawn = Pool.submit pool (fun () -> Atomic.set ran true) in
  Alcotest.(check bool) "a queued job is withdrawn" true (Pool.cancel withdrawn Exit);
  Alcotest.check_raises "its await raises the cancel's exception" Exit (fun () ->
      Pool.await withdrawn);
  with_runner pool (fun pool ->
      let later = Pool.submit pool (fun () -> 5) in
      Alcotest.(check int) "later jobs still run" 5 (Pool.await later);
      Alcotest.(check bool) "a started job is not withdrawn" false (Pool.cancel later Exit);
      Alcotest.(check int) "and keeps its value" 5 (Pool.await later));
  Alcotest.(check bool) "the withdrawn job never ran" false (Atomic.get ran)

(* A job parked at shutdown and resumed after it unwinds from its park:
   its waiter gets [Failure], its finalisers run. *)
let test_resume_after_shutdown () =
  let pool = Pool.create ~domains:1 in
  let runner = Thread.create Pool.work pool in
  let resume = Atomic.make None and unwound = Atomic.make false in
  let job =
    Pool.submit pool (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set unwound true)
          (fun () -> Pool.park (fun r -> Atomic.set resume (Some r))))
  in
  while Option.is_none (Atomic.get resume) do
    Thread.delay 0.001
  done;
  Pool.shutdown pool;
  (Option.get (Atomic.get resume)) ();
  Thread.join runner;
  (match Pool.await job with
  | () -> Alcotest.fail "a job parked past shutdown must fail"
  | exception Failure _ -> ());
  Alcotest.(check bool) "the parked job unwound" true (Atomic.get unwound)

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
        Alcotest.test_case "a raising job re-raises with its backtrace" `Quick test_job_exception;
        Alcotest.test_case "shutdown fails the jobs still queued" `Quick
          test_shutdown_fails_queued_jobs;
        Alcotest.test_case "a parked job frees its runner" `Quick test_park_frees_runner;
        Alcotest.test_case "parked jobs continue on any runner" `Quick test_parked_jobs_migrate;
        Alcotest.test_case "park outside a job blocks until resumed" `Quick
          test_park_outside_job_blocks;
        Alcotest.test_case "cancel withdraws a job not yet started" `Quick
          test_cancel_withdraws_queued_job;
        Alcotest.test_case "a job resumed after shutdown fails its waiter" `Quick
          test_resume_after_shutdown;
        QCheck_alcotest.to_alcotest prop_map_matches_list_map;
      ] );
  ]
