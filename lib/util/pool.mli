(** Fixed-size work pool over OCaml 5 domains.

    A pool owns [domains - 1] worker domains plus the calling domain:
    {!map} submits one task per list element to a shared queue and the
    caller executes tasks alongside the workers until its own batch has
    completed.  Because the submitting domain always participates, [map]
    may be called re-entrantly from inside a task running on the same
    pool (nested batches) without risk of deadlock: every batch's
    submitter can drain the queue itself even when all workers are busy.

    Results are returned in submission order regardless of which domain
    executed which task.  A task that raises does not poison the pool:
    the remaining tasks of the batch still run to completion, the first
    exception (in submission order) is re-raised to the caller with its
    backtrace, and the pool stays usable for further batches.

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

val depth : t -> int
(** Tasks currently queued and not yet picked up by any domain.  A
    point-in-time level for admission control; also published as the
    [pool.depth] gauge when tracing is on. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f items] applies [f] to every element, executing the
    applications on the pool, and returns the results in the order of
    [items].  Blocks until the whole batch has finished.  If one or more
    tasks raised, re-raises the exception of the earliest-submitted
    failing task after the batch completes. *)

val shutdown : t -> unit
(** Finish any queued tasks, stop the worker domains and join them.
    The pool must not be used afterwards.  Idempotent. *)

val run : domains:int -> (t -> 'a) -> 'a
(** [run ~domains f] brackets [f] between {!create} and {!shutdown},
    shutting the pool down on exceptions too. *)
