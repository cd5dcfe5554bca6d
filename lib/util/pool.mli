(** Fixed-size work pool over OCaml 5 domains.

    A pool owns [domains - 1] worker domains.  It runs two kinds of work
    from two queues:

    {b Tasks} are the items of a {!map} batch.  The caller of [map]
    executes tasks alongside the workers until its own batch has
    completed.  Because the submitting thread always participates, [map]
    may be called re-entrantly from inside a task or a job running on the
    same pool (nested batches) without risk of deadlock: every batch's
    submitter can drain the queue itself even when all workers are busy.

    {b Jobs} are whole computations handed over with {!submit} — a
    tuning daemon's sessions, each of which maps its rating batches over
    the same pool.  A job carries no result: its body publishes what it
    computes itself.  Only a worker domain takes a job, so a pool runs
    jobs on its [domains - 1] workers and never on the thread that
    submitted them.  A worker takes a queued task before a queued job,
    and [map]'s helping loop never takes a job, so no job ever runs
    nested inside another job's batch.  A job may {!park}: it stops, its
    worker takes other work, and once resumed the job goes back on the
    queue and continues on whichever worker takes it next.

    Results are returned in submission order regardless of which domain
    executed which task.  A task that raises does not poison the pool:
    the remaining tasks of the batch still run to completion, the first
    exception (in submission order) is re-raised to the caller with its
    backtrace, and the pool stays usable for further batches.  An
    exception that escapes a job ends that job and is discarded; its
    worker goes on with the next piece of work.

    Determinism contract: if each task computes a value independent of
    the other tasks (no shared mutable state), the result list — and any
    aggregation folded over it in order — is identical for every pool
    size, including [~domains:1] (no worker domains at all).  This is the
    property the tuning driver's parallel rating path builds on. *)

type t

val create : domains:int -> t
(** Spawn a pool executing up to [domains] tasks concurrently
    ([domains - 1] worker domains; the caller of {!map} is the last).
    Jobs run on the workers only: a caller that submits jobs and never
    maps creates one more than the domains it wants computing.
    @raise Invalid_argument if [domains < 1]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f items] applies [f] to every element, executing the
    applications on the pool, and returns the results in the order of
    [items].  Blocks until the whole batch has finished.  If one or more
    tasks raised, re-raises the exception of the earliest-submitted
    failing task after the batch completes. *)

type job
(** A submitted job's handle. *)

val submit : t -> (unit -> unit) -> job
(** Queue [body] as a job for the next idle worker; returns at once.
    @raise Invalid_argument on a pool with no worker domain, which no
    worker could ever take the job from, and once the pool is
    {!shutdown}. *)

val cancel : job -> bool
(** Withdraw a job no worker has started: it never runs.  Returns [true]
    only when this call withdrew it — [false], doing nothing, once a
    worker has started the job, an earlier [cancel] withdrew it or
    {!shutdown} dropped it. *)

val park : ((unit -> unit) -> unit) -> unit
(** [park register], called from inside a job, stops the job and frees
    its worker for other work.  [register resume] runs on the worker
    once the job has stopped; calling [resume] (once, from any thread,
    at once or later) queues the job to continue, and [park] returns on
    the worker that takes it.  There is no other path: called outside a
    job, [park] raises [Effect.Unhandled].  Locks held across a park
    would be released from another thread: hold none. *)

val shutdown : t -> unit
(** Drop the queued jobs (those no worker has started never run; parked
    jobs already resumed unwind from their park), let the workers finish
    the work they hold and any queued tasks, then stop the worker
    domains and join them.  A job parked and not yet resumed is its
    parker's to resume; resumed after shutdown, it unwinds from its
    park.  The pool must not be used afterwards.  Idempotent. *)

val run : domains:int -> (t -> 'a) -> 'a
(** [run ~domains f] brackets [f] between {!create} and {!shutdown},
    shutting the pool down on exceptions too. *)
