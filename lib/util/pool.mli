(** Fixed-size work pool over OCaml 5 domains.

    A pool owns [domains - 1] worker domains.  It runs two kinds of work
    from two queues:

    {b Tasks} are the items of a {!map} batch.  The caller of [map]
    executes tasks alongside the runners until its own batch has
    completed.  Because the submitting thread always participates, [map]
    may be called re-entrantly from inside a task or a job running on the
    same pool (nested batches) without risk of deadlock: every batch's
    submitter can drain the queue itself even when all runners are busy.

    {b Jobs} are whole computations handed over with {!submit} — a
    tuning daemon's sessions, each of which maps its rating batches over
    the same pool.  A job carries no result: its body publishes what it
    computes itself.  Only a {e runner} takes a job: a worker domain, or
    a thread that called {!work}.  A runner takes a queued task before a
    queued job, and [map]'s helping loop never takes a job, so no job
    ever runs nested inside another job's batch.  A job may {!park}: it
    stops, its runner takes other work, and once resumed the job goes
    back on the queue and continues on whichever runner takes it next.
    A pool with no worker domain ([~domains:1]) runs jobs only once some
    thread calls {!work}.

    Results are returned in submission order regardless of which domain
    executed which task.  A task that raises does not poison the pool:
    the remaining tasks of the batch still run to completion, the first
    exception (in submission order) is re-raised to the caller with its
    backtrace, and the pool stays usable for further batches.  An
    exception that escapes a job ends that job and is discarded; its
    runner goes on with the next piece of work.

    Determinism contract: if each task computes a value independent of
    the other tasks (no shared mutable state), the result list — and any
    aggregation folded over it in order — is identical for every pool
    size, including [~domains:1] (no worker domains at all).  This is the
    property the tuning driver's parallel rating path builds on. *)

type t

val create : domains:int -> t
(** Spawn a pool executing up to [domains] tasks concurrently
    ([domains - 1] worker domains; the caller of {!map} is the last).
    @raise Invalid_argument if [domains < 1]. *)

val domains : t -> int
(** The concurrency level the pool was created with. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f items] applies [f] to every element, executing the
    applications on the pool, and returns the results in the order of
    [items].  Blocks until the whole batch has finished.  If one or more
    tasks raised, re-raises the exception of the earliest-submitted
    failing task after the batch completes. *)

type job
(** A submitted job's handle. *)

val submit : t -> (unit -> unit) -> job
(** Queue [body] as a job for the next idle runner; returns at once.
    @raise Invalid_argument once the pool is {!shutdown}. *)

val cancel : job -> bool
(** Withdraw a job no runner has started: it never runs.  Returns [true]
    only when this call withdrew it — [false], doing nothing, once a
    runner has started the job, an earlier [cancel] withdrew it or
    {!shutdown} dropped it. *)

val park : ((unit -> unit) -> unit) -> unit
(** [park register], called from inside a job, stops the job and frees
    its runner for other work.  [register resume] runs on the runner
    once the job has stopped; calling [resume] (once, from any thread,
    at once or later) queues the job to continue, and [park] returns on
    the runner that takes it.  There is no other path: called outside a
    job, [park] raises [Effect.Unhandled].  Locks held across a park
    would be released from another thread: hold none. *)

val work : t -> unit
(** Make the calling thread one more runner: it executes queued tasks
    and jobs until {!shutdown}, then returns.  A daemon calls it from a
    thread of its main domain, so that domain computes jobs alongside
    the [domains - 1] workers. *)

val shutdown : t -> unit
(** Drop the queued jobs (those no runner has started never run; parked
    jobs already resumed unwind from their park), let the runners finish
    the work they hold and any queued tasks, then stop the worker
    domains and join them (a {!work} thread returns and is its starter's
    to join).  A job parked and not yet resumed is its parker's to
    resume; resumed after shutdown, it unwinds from its park.  The pool
    must not be used afterwards.  Idempotent. *)

val run : domains:int -> (t -> 'a) -> 'a
(** [run ~domains f] brackets [f] between {!create} and {!shutdown},
    shutting the pool down on exceptions too. *)
