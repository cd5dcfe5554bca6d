(** Admission control and fair-share scheduling for concurrent tuning
    sessions.

    Two mechanisms, both non-intrusive to the sessions' results:

    {b Bounded in-flight.}  At most [capacity] sessions hold a ticket at
    once.  {!try_admit} never blocks: when saturated it returns
    [Saturated retry_after] (seconds, estimated from an EWMA of
    completed-session wall times) and the caller replies
    reject-with-retry-after instead of queueing unboundedly.

    {b Fair-share rating budgets.}  An admitted session calls {!charge}
    with its cumulative count of {e freshly computed} ratings (store
    replays are free — charging them would starve resumed sessions).
    The call pauses the session while it is more than [quantum] fresh
    ratings ahead of the least-advanced admitted session, so concurrent
    sessions drain the shared pool at matched rates and a cheap session
    is never starved by a long one.  A new ticket joins at zero, so the
    converse does not hold: a long session waits behind every newcomer,
    and a steady stream of cheap sessions starves it.  A session
    charging from a {!Peak_util.Pool} job pauses by
    {!Peak_util.Pool.park}ing: its runner takes other work — the session
    still waiting for a domain that holds the minimum down, or other
    sessions' rating tasks — so a pause never keeps a domain from work
    that could use it.  Called outside a job, [charge] blocks its
    thread.  The least-advanced session never pauses, which
    makes the discipline deadlock-free; and because pausing only ever
    delays work without reordering it, the per-session results remain
    bit-identical to solo runs.

    All entry points are thread- and domain-safe. *)

type t

type ticket
(** One admitted session's handle. *)

type verdict = Admitted of ticket | Saturated of float  (** Retry-after seconds. *)

type stats = { a_active : int; a_capacity : int; a_completed : int; a_rejected : int }

val create : capacity:int -> quantum:int -> t
(** @raise Invalid_argument if [capacity < 1] or [quantum < 1]. *)

val try_admit : t -> verdict
(** Non-blocking.  [Saturated] when [capacity] sessions are in flight or
    the controller is {!close}d.  Updates the [serve.inflight] gauge and
    the [serve.admitted] / [serve.rejected] counters. *)

val charge :
  t -> ticket -> ?abort:(unit -> bool) -> fresh:int -> unit -> unit
(** Record the session's cumulative fresh-rating count and pause while
    it is over fair-share budget.  Returns promptly once the controller
    is {!close}d, the ticket {!release}d, or [abort] turns true
    (re-evaluated on every {!kick}/state change — the cancellation
    hook). *)

val release : t -> ticket -> wall:float -> unit
(** Return the ticket, folding the session's wall-clock seconds into the
    retry-after estimate and resuming paused chargers.  Idempotent. *)

val kick : t -> unit
(** Make all paused {!charge} calls re-evaluate their [abort]
    predicates (e.g. after flagging a session cancelled). *)

val close : t -> unit
(** Refuse further admissions and resume every paused {!charge} (daemon
    drain). *)

val stats : t -> stats
