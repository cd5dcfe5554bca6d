type task = unit -> unit

type t = {
  mutex : Mutex.t;
  cond : Condition.t;
  queue : task Queue.t;
  mutable running : int;  (* tasks dequeued but not yet finished *)
  mutable live : bool;
  mutable workers : unit Domain.t list;
  domains : int;
}

(* Gauges mirror the level of the queue and of dequeued-but-unfinished
   tasks; both are read and written only under [pool.mutex]. *)
let note_levels pool =
  if Peak_obs.active () then begin
    Peak_obs.gauge "pool.depth" (Queue.length pool.queue);
    Peak_obs.gauge "pool.inflight" pool.running
  end

(* Workers drain the queue until shutdown; a task never raises (map wraps
   user code in a result), so a worker cannot die early. *)
let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && pool.live do
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
      worker_loop pool
  | None ->
      (* queue empty and pool no longer live *)
      Mutex.unlock pool.mutex

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      running = 0;
      live = true;
      workers = [];
      domains;
    }
  in
  pool.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let domains pool = pool.domains

let depth pool =
  Mutex.lock pool.mutex;
  let d = Queue.length pool.queue in
  Mutex.unlock pool.mutex;
  d

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

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.live <- false;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let run ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
