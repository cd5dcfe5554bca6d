(** The tuning service daemon: a long-running process that serves one
    store directory, accepting concurrent tuning sessions over a
    Unix-domain or TCP socket speaking the {!Wire} protocol.

    {b Multiplexing.}  Every accepted connection gets a thread; no
    session gets one.  The connection that admits a session opens its
    store session (so that it can answer [Accepted] with the replay
    count) and hands {!Peak.Driver.tune} to the shared {!Peak_util.Pool}
    as one job, the session's one owner.  The pool's [domains] worker
    domains run those jobs, one session each at a time, so [domains]
    sessions compute side by side and the rest wait for a domain (a
    [serve.queue] span, from admission to the job's start, when tracing
    is on).  Each session's rating batches run on the same workers.  The
    domain that runs {!serve} only accepts and runs the connection
    threads, so no session waits behind them for its runtime lock.  A
    session ends once, by its job or by the cancel that withdrew the job
    before it started: the store session closes, the admission ticket is
    released, the registry entry is dropped and the outcome goes to the
    connections waiting on it.  The registry holds exactly the running
    sessions; the status of an ended session comes from the store, which
    knows [done] (with its result) or [idle] — a failed or cancelled
    session reads [idle], its reason having gone to its waiting client.
    The driver's results do not depend on the pool, so every session's
    result is bit-identical to running the same parameters through the
    batch CLI with [--store].

    {b Admission.}  {!Admission} bounds in-flight sessions and paces
    them to fair-share fresh-rating budgets via {!Peak.Driver.tune}'s
    [progress] hook; a saturated submit is rejected with a retry-after
    estimate rather than queued.  A session over its budget parks
    ({!Peak_util.Pool.park}) and its domain takes other work, such as a
    session waiting for a domain.

    {b Store discipline.}  One daemon per store, enforced by an
    exclusive [lockf] lock on [STORE/.peak-tuned.lock]; one journal
    writer per session id, enforced by the registry (a submit for a
    running id attaches to it) and by {!Peak_store.Session}'s [.writer]
    pidfile.

    {b Crash tolerance.}  SIGTERM mid-session aborts running and parked
    sessions at their next progress callback, leaving journals
    consistent, and ends sessions still waiting for a domain before
    their profile runs; restarting the daemon and resuming a session
    replays its journal and completes bit-identically.  A cancel ends a
    session the same way, and one still waiting for a domain at once,
    freeing its admission slot before the cancel is acknowledged. *)

exception Aborted of string
(** Raised from the driver's progress callback to stop a session
    (cancel or daemon shutdown).  The session journal is consistent at
    every callback point, so an aborted session resumes exactly. *)

type config = {
  store : string;  (** Store directory (created if missing). *)
  endpoint : Wire.endpoint;
  domains : int;
      (** Worker domains that run sessions and their ratings, besides the
          domain that runs {!serve}, which computes none. *)
  max_sessions : int;  (** Admission capacity. *)
  quantum : int;  (** Fair-share fresh-rating quantum. *)
}

type t

val create : config -> (t, string) result
(** Acquire the store lock, bind the listener, build the shared pool
    and admission controller.  [Error] (store already served, address
    in use, …) leaves nothing held.
    @raise Invalid_argument if [domains < 1] ([max_sessions]/[quantum]
    bounds are checked by {!Admission.create}). *)

val serve : t -> unit
(** Run the accept loop until {!stop}, then drain: stop accepting,
    abort in-flight sessions at their next progress callback (queued
    ones when they start), wait for every session and join the
    connection threads, shut the pool down, and release socket and
    lock.  Returns when the daemon is fully drained. *)

val stop : t -> unit
(** Request shutdown.  Only sets an atomic flag — safe to call from a
    signal handler; {!serve} notices within its 200 ms accept tick. *)

val endpoint : t -> Wire.endpoint
