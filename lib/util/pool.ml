type task = unit -> unit

type job = bool Atomic.t  (* a worker started it, or [cancel] or [shutdown] took it *)

(* A queued job: one no worker has started, or a parked one resumed. *)
type pending = Fresh of job * (unit -> unit) | Parked of (unit, unit) Effect.Deep.continuation

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : task Queue.t;  (* map's tasks *)
  jobs : pending Queue.t;  (* whole jobs, taken only by an idle worker *)
  mutable running : int;  (* tasks dequeued but not yet finished *)
  mutable live : bool;
  mutable workers : unit Domain.t list;
  domains : int;
}

type _ Effect.t += Park : ((unit -> unit) -> unit) -> unit Effect.t

exception Dropped

(* Gauges mirror the level of the queue and of dequeued-but-unfinished
   tasks; both are read and written only under [pool.mutex]. *)
let note_levels pool =
  if Peak_obs.active () then begin
    Peak_obs.gauge "pool.depth" (Queue.length pool.queue);
    Peak_obs.gauge "pool.inflight" pool.running
  end

(* Queue [p] for a worker; [false], queueing nothing, once the pool is
   shut down. *)
let push pool p =
  Mutex.protect pool.mutex (fun () ->
      if pool.live then begin
        Queue.push p pool.jobs;
        (* a broadcast, not a signal: the woken thread might be a map
           helper, which never takes a job *)
        Condition.broadcast pool.cond
      end;
      pool.live)

(* Run [body] as a job.  An exception that escapes it ends the job, not
   the worker.  A [park] inside it returns control here, to the worker,
   and hands the parker a resume that queues the rest of the job; the
   deep handler travels with the continuation, so a later park returns
   to whichever worker continued it.  A [register] that raises raises
   from the park. *)
let start pool body =
  Effect.Deep.try_with
    (fun () -> try body () with _ -> ())
    ()
    {
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Park register ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let resume () =
                    if not (push pool (Parked k)) then Effect.Deep.discontinue k Dropped
                  in
                  match register resume with
                  | () -> ()
                  | exception e -> Effect.Deep.discontinue k e)
          | _ -> None);
    }

(* Each worker domain drains the queues until shutdown, a task before a
   job: a queued task belongs to a batch that a running job waits on.
   Neither raises (map wraps user code in a result, [start] swallows
   what a job lets escape), so a worker cannot die early.  Only this
   loop takes jobs — never map's helping loop — so a job never runs
   nested inside another job's batch; a job that parks returns here and
   the worker takes the next piece of work. *)
let rec work pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && Queue.is_empty pool.jobs && pool.live do
    Condition.wait pool.cond pool.mutex
  done;
  match Queue.take_opt pool.queue with
  | Some task ->
      pool.running <- pool.running + 1;
      note_levels pool;
      Mutex.unlock pool.mutex;
      Peak_obs.count "pool.worker_tasks";
      task ();
      Mutex.lock pool.mutex;
      pool.running <- pool.running - 1;
      note_levels pool;
      Mutex.unlock pool.mutex;
      work pool
  | None -> (
      match Queue.take_opt pool.jobs with
      | Some p ->
          Mutex.unlock pool.mutex;
          (match p with
          | Fresh (claimed, body) ->
              if Atomic.compare_and_set claimed false true then start pool body
          | Parked k -> Effect.Deep.continue k ());
          work pool
      | None ->
          (* both queues empty and the pool no longer live *)
          Mutex.unlock pool.mutex)

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      jobs = Queue.create ();
      running = 0;
      live = true;
      workers = [];
      domains;
    }
  in
  pool.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> work pool));
  pool

let map (type b) pool (f : 'a -> b) items =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    (* one slot per item, written exactly once before [remaining] hits 0;
       the placeholder is never read back *)
    let placeholder : (b, exn * Printexc.raw_backtrace) result =
      Error (Not_found, Printexc.get_callstack 0)
    in
    let results = Array.make n placeholder in
    let remaining = ref n in
    let task i () =
      let r =
        try Ok (f items.(i)) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock pool.mutex;
      results.(i) <- r;
      decr remaining;
      Condition.broadcast pool.cond;
      Mutex.unlock pool.mutex
    in
    Mutex.lock pool.mutex;
    for i = 0 to n - 1 do
      Queue.push (task i) pool.queue
    done;
    Peak_obs.count ~n "pool.submitted";
    if Peak_obs.active () then
      Peak_obs.instant ~cat:"pool"
        ~args:
          [
            ("batch", string_of_int n);
            ("depth", string_of_int (Queue.length pool.queue));
          ]
        "pool:batch";
    note_levels pool;
    Condition.broadcast pool.cond;
    (* The caller works too.  It may pick up a task from another batch
       (nested maps share the queue); that only delays this batch, and
       the helped batch's submitter is woken by the broadcast above. *)
    while !remaining > 0 do
      match Queue.take_opt pool.queue with
      | Some task ->
          pool.running <- pool.running + 1;
          note_levels pool;
          Mutex.unlock pool.mutex;
          (* the submitter helping drain its own (or a nested) batch *)
          Peak_obs.count "pool.steals";
          task ();
          Mutex.lock pool.mutex;
          pool.running <- pool.running - 1;
          note_levels pool
      | None -> if !remaining > 0 then Condition.wait pool.cond pool.mutex
    done;
    Mutex.unlock pool.mutex;
    (* The whole batch has completed, so re-raising here leaves no task
       of this batch behind in the queue: the pool stays reusable.  The
       scan is in index order — the error surfaced is the first failing
       item's, independent of which domain finished when. *)
    for i = 0 to n - 1 do
      match results.(i) with
      | Ok _ -> ()
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
    done;
    let out = ref [] in
    for i = n - 1 downto 0 do
      match results.(i) with
      | Ok v -> out := v :: !out
      | Error _ -> assert false
    done;
    !out
  end

let submit pool body =
  if pool.domains = 1 then invalid_arg "Pool.submit: pool has no worker domain";
  let job = Atomic.make false in
  if not (push pool (Fresh (job, body))) then invalid_arg "Pool.submit: pool is shut down";
  job

let cancel job = Atomic.compare_and_set job false true

let park register = Effect.perform (Park register)

let shutdown pool =
  let queued =
    Mutex.protect pool.mutex (fun () ->
        pool.live <- false;
        let queued = List.of_seq (Queue.to_seq pool.jobs) in
        Queue.clear pool.jobs;
        Condition.broadcast pool.cond;
        queued)
  in
  (* outside the lock: dropping a parked job unwinds its code *)
  List.iter
    (function
      | Fresh (claimed, _) -> Atomic.set claimed true
      | Parked k -> Effect.Deep.discontinue k Dropped)
    queued;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let run ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
