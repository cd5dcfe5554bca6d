open Peak_machine
open Peak_workload
open Peak

let ( let* ) r f = Result.bind r f

let ( // ) = Filename.concat

exception Aborted of string
(* raised from the driver's progress callback to stop a session; the
   store journal is consistent at every callback point, so an aborted
   session resumes bit-identically *)

type config = {
  store : string;
  endpoint : Wire.endpoint;
  domains : int;
  max_sessions : int;
  quantum : int;
}

type outcome =
  | Done of Peak_store.Codec.session_result
  | Failed of string
  | Cancelled of string

(* A running session.  The registry holds exactly these: the session's
   one [finish] drops its entry and then hands the outcome to the
   connections still waiting on it. *)
type entry = {
  e_id : string;
  e_ticket : Admission.ticket;
  e_admitted : float;  (* wall clock at admission *)
  e_queued : int;  (* the [serve.queue] span, from admission to the job's start *)
  e_mutex : Mutex.t;
  e_cond : Condition.t;
  mutable e_outcome : outcome option;  (* [None] until [finish] *)
  mutable e_ratings : int;
  mutable e_fresh : int;
  mutable e_session : Peak_store.Session.t option;  (* once its journal is open *)
  mutable e_job : Peak_util.Pool.job option;  (* once submitted *)
  e_cancel : bool Atomic.t;
}

module Ids = Map.Make (String)

type t = {
  cfg : config;
  lock_fd : Unix.file_descr;
  pool : Peak_util.Pool.t;
  adm : Admission.t;
  lsock : Unix.file_descr;
  stopping : bool Atomic.t;
  submit_mutex : Mutex.t;  (* serialises admissions *)
  registry : entry Ids.t Atomic.t;  (* by session id *)
  mutable main_runner : Thread.t option;  (* guarded by submit_mutex *)
  conn_mutex : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
}

(* ---------------- session arguments ----------------
   The server resolves names itself (the wire carries strings), with the
   CLI's parsers; a resume decodes the stored metadata as the CLI's
   [session resume] does, so both resume bit-identically. *)

let job_of_spec (sp : Wire.submit_spec) =
  let* sa_benchmark = Registry.of_string sp.Wire.sb_benchmark in
  let* sa_machine = Machine.of_string sp.Wire.sb_machine in
  let* sa_dataset = Trace.dataset_of_string sp.Wire.sb_dataset in
  let* sa_strategy = Strategy.of_string sp.Wire.sb_search in
  let* sa_method = Method.request_of_string sp.Wire.sb_method in
  let* sa_params =
    match sp.Wire.sb_cap with
    | None -> Ok Rating.default_params
    | Some n when n >= 1 -> Ok { Rating.default_params with Rating.max_invocations = n }
    | Some _ -> Error "rating cap must be >= 1"
  in
  Ok
    {
      Driver.sa_benchmark;
      sa_machine;
      sa_dataset;
      sa_strategy;
      sa_method;
      sa_params;
      sa_threshold = 0.005;
      sa_seed = sp.Wire.sb_seed;
      sa_start = Peak_compiler.Optconfig.o3;
      sa_faults = None;
    }

let job_of_stored ~dir id =
  let* info = Peak_store.Session.load_info ~dir ~id in
  Driver.session_args info.Peak_store.Session.info_meta

let meta_of_job (job : Driver.session_args) =
  Driver.session_meta ?method_:job.Driver.sa_method ~strategy:job.Driver.sa_strategy
    ~rating_params:job.Driver.sa_params ~threshold:job.Driver.sa_threshold
    ~seed:job.Driver.sa_seed ~start:job.Driver.sa_start ?faults:job.Driver.sa_faults
    job.Driver.sa_benchmark job.Driver.sa_machine job.Driver.sa_dataset

(* ---------------- lifecycle ---------------- *)

let rec mkdir_p path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let lock_path store = store // ".peak-tuned.lock"

(* fcntl locks do not conflict within one process, so lockf alone cannot
   stop two in-process daemons (a test harness, a library embedder) from
   sharing a store — this table covers the intra-process half. *)
let held_stores : (string, unit) Hashtbl.t = Hashtbl.create 4
let held_mutex = Mutex.create ()

let acquire_store_lock store =
  Mutex.lock held_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock held_mutex) @@ fun () ->
  if Hashtbl.mem held_stores store then
    Error (Printf.sprintf "store %s is already served by another peak-tuned" store)
  else
    let fd = Unix.openfile (lock_path store) [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 in
    match Unix.lockf fd Unix.F_TLOCK 0 with
    | () ->
        (* informational: which pid serves the store *)
        ignore (Unix.ftruncate fd 0);
        let pid = string_of_int (Unix.getpid ()) ^ "\n" in
        ignore (Unix.write_substring fd pid 0 (String.length pid));
        Hashtbl.replace held_stores store ();
        Ok fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "store %s is already served by another peak-tuned" store)
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "cannot lock store %s: %s" store (Unix.error_message e))

let release_store_lock store fd =
  Mutex.lock held_mutex;
  Hashtbl.remove held_stores store;
  Mutex.unlock held_mutex;
  try Unix.close fd with Unix.Unix_error _ -> ()

let listen_on endpoint =
  match endpoint with
  | Wire.Unix_sock path ->
      (* the store lock guarantees we are the only daemon for this
         store; any existing socket file is a previous instance's
         leftover *)
      if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (match Unix.bind fd (Unix.ADDR_UNIX path) with
      | () ->
          Unix.listen fd 64;
          Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)))
  | Wire.Tcp (host, port) -> (
      let* addr =
        match Unix.inet_addr_of_string host with
        | a -> Ok a
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } -> Error ("cannot resolve host " ^ host)
            | h -> Ok h.Unix.h_addr_list.(0)
            | exception Not_found -> Error ("cannot resolve host " ^ host))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match Unix.bind fd (Unix.ADDR_INET (addr, port)) with
      | () ->
          Unix.listen fd 64;
          Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "cannot bind %s:%d: %s" host port (Unix.error_message e)))

let create cfg =
  if cfg.domains < 1 then invalid_arg "Daemon.create: domains must be >= 1";
  (match mkdir_p cfg.store with
  | () -> ()
  | exception Sys_error _ | (exception Unix.Unix_error _) -> ());
  let* lock_fd = acquire_store_lock cfg.store in
  match listen_on cfg.endpoint with
  | Error e ->
      release_store_lock cfg.store lock_fd;
      Error e
  | Ok lsock ->
      (* a client vanishing mid-write must surface as EPIPE, not kill
         the daemon *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
      Ok
        {
          cfg;
          lock_fd;
          pool = Peak_util.Pool.create ~domains:cfg.domains;
          adm = Admission.create ~capacity:cfg.max_sessions ~quantum:cfg.quantum;
          lsock;
          stopping = Atomic.make false;
          submit_mutex = Mutex.create ();
          registry = Atomic.make Ids.empty;
          main_runner = None;
          conn_mutex = Mutex.create ();
          conns = [];
        }

let stop t = Atomic.set t.stopping true
(* only an atomic set — safe to call from a signal handler *)

let endpoint t = t.cfg.endpoint

(* ---------------- running one session ---------------- *)

(* The registry is an immutable map behind an atomic, so that a job
   drops its session's entry without a lock.  The connections' threads
   share one domain (the one that runs [serve]); a runner waiting for a
   lock one of them holds would wait, idle, until that thread got its
   domain's runtime lock back. *)
let rec update t f =
  let m = Atomic.get t.registry in
  if not (Atomic.compare_and_set t.registry m (f m)) then update t f

(* End a session, once: by its job, by the [Cancel] that withdrew the
   job before a runner started it, or by its connection when the store
   refused to open it.  Only the entry bound to an id is ever dropped
   under it: a submit binds an id only while it is unbound. *)
let finish t entry outcome =
  Peak_obs.end_span entry.e_queued;
  Option.iter Peak_store.Session.close entry.e_session;
  Admission.release t.adm entry.e_ticket ~wall:(Unix.gettimeofday () -. entry.e_admitted);
  Peak_obs.count "serve.sessions";
  update t (Ids.remove entry.e_id);
  Mutex.lock entry.e_mutex;
  entry.e_outcome <- Some outcome;
  Condition.broadcast entry.e_cond;
  Mutex.unlock entry.e_mutex

(* A cancelled session whose job no runner has started ends at once. *)
let withdraw t entry =
  Mutex.lock entry.e_mutex;
  let job = entry.e_job in
  Mutex.unlock entry.e_mutex;
  match job with
  | Some j when Peak_util.Pool.cancel j -> finish t entry (Cancelled "cancelled")
  | _ -> ()

(* The session's one job: it tunes on whichever domain takes it, then
   ends the session.  A session over its fair share parks in
   [Admission.charge], giving its domain to other work. *)
let session_job t entry job session () =
  Peak_obs.end_span entry.e_queued;
  let abort () = Atomic.get entry.e_cancel || Atomic.get t.stopping in
  let check_abort () =
    if Atomic.get entry.e_cancel then raise (Aborted "cancelled");
    if Atomic.get t.stopping then raise (Aborted "daemon stopping")
  in
  let progress ~ratings ~fresh =
    check_abort ();
    Mutex.lock entry.e_mutex;
    entry.e_ratings <- ratings;
    entry.e_fresh <- fresh;
    Condition.broadcast entry.e_cond;
    Mutex.unlock entry.e_mutex;
    Admission.charge t.adm entry.e_ticket ~abort ~fresh;
    (* a pause ended by a cancel or a stop ends the session *)
    check_abort ()
  in
  finish t entry
    (match
       (* a session cancelled, or a daemon stopped, while the job waited
          for a domain ends before its profile runs *)
       check_abort ();
       Driver.result_summary
         (Driver.tune ~seed:job.Driver.sa_seed ~strategy:job.Driver.sa_strategy
            ~rating_params:job.Driver.sa_params ~threshold:job.Driver.sa_threshold
            ?method_:job.Driver.sa_method ~pool:t.pool ~store:session
            ?faults:job.Driver.sa_faults ~progress job.Driver.sa_benchmark
            job.Driver.sa_machine job.Driver.sa_dataset)
     with
    | r -> Done r
    | exception Aborted why -> Cancelled why
    | exception e -> Failed (Printexc.to_string e))

(* The admitting connection opens the session's store, so that it can
   answer [Accepted] with the replay count, then hands the session to
   the pool as one job; the pool's runners — its [domains - 1] workers
   and the main domain's [Pool.work] thread — compute [domains] sessions
   side by side. *)
let open_session t entry job =
  match Peak_store.Session.open_ ~dir:t.cfg.store ~meta:(meta_of_job job) () with
  | Error e -> finish t entry (Failed e)
  | exception e -> finish t entry (Failed (Printexc.to_string e))
  | Ok session ->
      Mutex.lock entry.e_mutex;
      entry.e_session <- Some session;
      Condition.broadcast entry.e_cond;
      Mutex.unlock entry.e_mutex;
      let pending = Peak_util.Pool.submit t.pool (session_job t entry job session) in
      Mutex.lock entry.e_mutex;
      entry.e_job <- Some pending;
      Mutex.unlock entry.e_mutex;
      (* a cancel that came before [e_job] was set *)
      if Atomic.get entry.e_cancel then withdraw t entry

type admit_outcome =
  | Started of entry
  | Attached of entry
  | Busy of float
  | Refused of string

(* A submit for a running id attaches to it (no second admission
   charge); any other submit starts the session — with the store, a
   re-run of a completed session replays entirely and finishes in
   milliseconds, so re-submit is a cheap idempotent "ensure done". *)
let start_or_attach t job =
  let id = (meta_of_job job).Peak_store.Codec.m_id in
  Mutex.protect t.submit_mutex @@ fun () ->
  if Atomic.get t.stopping then Refused "daemon is stopping"
  else
    match Ids.find_opt id (Atomic.get t.registry) with
    | Some e -> Attached e
    | None -> (
        match Admission.try_admit t.adm with
        | Admission.Saturated retry_after -> Busy retry_after
        | Admission.Admitted ticket ->
            let entry =
              {
                e_id = id;
                e_ticket = ticket;
                e_admitted = Unix.gettimeofday ();
                e_queued =
                  Peak_obs.begin_span ~cat:"serve.queue" ~args:[ ("id", id) ] ("queue:" ^ id);
                e_mutex = Mutex.create ();
                e_cond = Condition.create ();
                e_outcome = None;
                e_ratings = 0;
                e_fresh = 0;
                e_session = None;
                e_job = None;
                e_cancel = Atomic.make false;
              }
            in
            update t (Ids.add id entry);
            (* the main domain's runner: with the pool's [domains - 1]
               workers, the daemon computes sessions on [domains]
               domains.  It starts with the first session, so a daemon
               start adds no thread to the accept loop's. *)
            if Option.is_none t.main_runner then
              t.main_runner <- Some (Thread.create Peak_util.Pool.work t.pool);
            Started entry)

(* ---------------- per-connection protocol ---------------- *)

let wire_state = function
  | Done _ -> Wire.Done
  | Failed _ -> Wire.Failed
  | Cancelled _ -> Wire.Cancelled

(* Wait until the session is open, for its replay count (what Accepted
   reports), or has ended without opening, for its outcome. *)
let wait_open entry =
  Mutex.lock entry.e_mutex;
  let rec wait () =
    match (entry.e_session, entry.e_outcome) with
    | Some session, _ -> Ok (Peak_store.Session.loaded_events session)
    | None, Some outcome -> Error outcome
    | None, None ->
        Condition.wait entry.e_cond entry.e_mutex;
        wait ()
  in
  let r = wait () in
  Mutex.unlock entry.e_mutex;
  r

let wait_outcome entry =
  Mutex.lock entry.e_mutex;
  while Option.is_none entry.e_outcome do
    Condition.wait entry.e_cond entry.e_mutex
  done;
  let outcome = Option.get entry.e_outcome in
  Mutex.unlock entry.e_mutex;
  outcome

let send_final send entry = function
  | Done r -> send (Wire.Result_r { rr_id = entry.e_id; rr_result = r })
  | Failed msg -> send (Wire.Error_r (Printf.sprintf "session %s failed: %s" entry.e_id msg))
  | Cancelled why ->
      send (Wire.Error_r (Printf.sprintf "session %s cancelled: %s" entry.e_id why))

(* Stream progress as obs-shaped events: a counter frame whenever the
   session's rating count advances, closed by a span frame.  The socket
   write happens outside the entry mutex. *)
let stream_progress send_event entry =
  let t0 = Unix.gettimeofday () in
  let rec loop last =
    Mutex.lock entry.e_mutex;
    while Option.is_none entry.e_outcome && entry.e_ratings = last do
      Condition.wait entry.e_cond entry.e_mutex
    done;
    let ratings = entry.e_ratings
    and fresh = entry.e_fresh
    and outcome = entry.e_outcome in
    Mutex.unlock entry.e_mutex;
    if ratings <> last then
      send_event (Wire.Ev_counter { ec_name = "session.ratings"; ec_value = ratings });
    match outcome with
    | None -> loop ratings
    | Some o ->
        send_event
          (Wire.Ev_span
             {
               es_name = "session:" ^ entry.e_id;
               es_dur = Unix.gettimeofday () -. t0;
               es_args =
                 [
                   ("ratings", string_of_int ratings);
                   ("fresh", string_of_int fresh);
                   ("state", Wire.state_to_string (wire_state o));
                 ];
             });
        o
  in
  loop 0

(* Answer a submit or resume admitted (or attached) as [entry]: [Accepted]
   once the session is open, then what [mode] asks for. *)
let follow ~send ~send_event ~mode entry =
  match wait_open entry with
  | Error outcome -> send_final send entry outcome
  | Ok resumed -> (
      send (Wire.Accepted { ac_id = entry.e_id; ac_resumed = resumed });
      match mode with
      | Wire.Detach -> ()
      | Wire.Wait -> send_final send entry (wait_outcome entry)
      | Wire.Stream ->
          send_event
            (Wire.Ev_instant
               {
                 ei_name = "session.admitted";
                 ei_args = [ ("id", entry.e_id); ("resumed", string_of_int resumed) ];
               });
          send_final send entry (stream_progress send_event entry))

let run_job t ~send ~send_event ~mode job =
  match start_or_attach t job with
  | Refused e -> send (Wire.Error_r e)
  | Busy retry_after ->
      send
        (Wire.Rejected
           { rj_id = (meta_of_job job).Peak_store.Codec.m_id; rj_retry_after = retry_after })
  | Started entry ->
      open_session t entry job;
      follow ~send ~send_event ~mode entry
  | Attached entry -> follow ~send ~send_event ~mode entry

(* The registry holds the running sessions; an ended one's state is in
   the store, which knows only done or idle. *)
let find_running t id = Ids.find_opt id (Atomic.get t.registry)

let status_of t id =
  match find_running t id with
  | Some e ->
      Mutex.lock e.e_mutex;
      let ratings = e.e_ratings in
      Mutex.unlock e.e_mutex;
      Ok { Wire.st_id = id; st_state = Wire.Running; st_ratings = ratings }
  | None ->
      let* info = Peak_store.Session.load_info ~dir:t.cfg.store ~id in
      let st =
        match info.Peak_store.Session.info_result with
        | Some _ -> Wire.Done
        | None -> Wire.Idle
      in
      Ok
        {
          Wire.st_id = id;
          st_state = st;
          st_ratings = info.Peak_store.Session.info_events;
        }

let handle_request t ~send ~send_event req =
  match req with
  | Wire.Ping -> send Wire.Pong
  | Wire.Stats_req ->
      let s = Admission.stats t.adm in
      send
        (Wire.Stats_r
           {
             Wire.ss_active = s.Admission.a_active;
             ss_capacity = s.Admission.a_capacity;
             ss_completed = s.Admission.a_completed;
             ss_rejected = s.Admission.a_rejected;
             ss_domains = Peak_util.Pool.domains t.pool;
           })
  | Wire.Submit sp -> (
      match job_of_spec sp with
      | Error e -> send (Wire.Error_r e)
      | Ok job -> run_job t ~send ~send_event ~mode:sp.Wire.sb_mode job)
  | Wire.Resume { rs_id; rs_mode } -> (
      match job_of_stored ~dir:t.cfg.store rs_id with
      | Error e -> send (Wire.Error_r e)
      | Ok job -> run_job t ~send ~send_event ~mode:rs_mode job)
  | Wire.Status_of id -> (
      match status_of t id with
      | Ok st -> send (Wire.Status_r st)
      | Error e -> send (Wire.Error_r e))
  | Wire.Stream_of id -> (
      match find_running t id with
      | Some e -> send_final send e (stream_progress send_event e)
      | None -> (
          match Peak_store.Session.load_info ~dir:t.cfg.store ~id with
          | Ok { Peak_store.Session.info_result = Some r; _ } ->
              send (Wire.Result_r { rr_id = id; rr_result = r })
          | Ok _ -> send (Wire.Error_r ("session " ^ id ^ " is not running"))
          | Error e -> send (Wire.Error_r e)))
  | Wire.Cancel_of id -> (
      match find_running t id with
      | Some e ->
          Atomic.set e.e_cancel true;
          (* end it now if it still waits for a domain, or resume it if
             it is parked in a fair-share wait *)
          withdraw t e;
          Admission.kick t.adm;
          send (Wire.Cancel_ack id)
      | None -> send (Wire.Error_r ("session " ^ id ^ " is not running")))

let forget_conn t fd =
  Mutex.lock t.conn_mutex;
  t.conns <- List.filter (fun (f, _) -> f <> fd) t.conns;
  Mutex.unlock t.conn_mutex

let handle_conn t fd =
  let reader = Wire.reader_of_fd fd in
  let send resp = Wire.write_frame fd (Wire.response_to_json resp) in
  let send_event ev = Wire.write_frame fd (Wire.event_to_json ev) in
  let rec loop () =
    match Wire.read_frame reader with
    | `Eof -> ()
    | `Overflow ->
        (* cannot resync a stream mid-giant-line: error out and close *)
        send (Wire.Error_r (Printf.sprintf "frame exceeds %d bytes" Wire.max_frame))
    | `Malformed e ->
        send (Wire.Error_r ("malformed frame: " ^ e));
        loop ()
    | `Frame j ->
        (match Wire.request_of_json j with
        | Error e -> send (Wire.Error_r ("bad request: " ^ e))
        | Ok req -> handle_request t ~send ~send_event req);
        loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      forget_conn t fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* a vanished client (EPIPE on send) just ends the connection *)
      try loop () with Unix.Unix_error _ -> ())

(* ---------------- the accept loop ---------------- *)

let serve t =
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.lsock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.lsock with
          | fd, _ ->
              Peak_obs.count "serve.connections";
              let th = Thread.create (fun () -> handle_conn t fd) () in
              Mutex.lock t.conn_mutex;
              t.conns <- (fd, th) :: t.conns;
              Mutex.unlock t.conn_mutex
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain, in dependency order: stop accepting; unblock fair-share
     waits; let every session notice [stopping] — a running job at its
     next progress callback, a queued one when it starts — and end,
     which empties the registry; then wake the connections (their
     outcome waits have already been broadcast) and join them; finally
     tear down the shared machinery. *)
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  Admission.close t.adm;
  (* a submit past its [stopping] check has bound its id by now *)
  Mutex.protect t.submit_mutex ignore;
  while not (Ids.is_empty (Atomic.get t.registry)) do
    Thread.delay 0.01
  done;
  let conns =
    Mutex.lock t.conn_mutex;
    let c = t.conns in
    Mutex.unlock t.conn_mutex;
    c
  in
  List.iter
    (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (_, th) -> Thread.join th) conns;
  Peak_util.Pool.shutdown t.pool;
  (* no session starts once [stopping] is set, so no runner appears now *)
  Option.iter Thread.join t.main_runner;
  (match t.cfg.endpoint with
  | Wire.Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Wire.Tcp _ -> ());
  release_store_lock t.cfg.store t.lock_fd
