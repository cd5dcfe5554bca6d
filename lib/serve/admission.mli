(** Admission control and fair-share scheduling for concurrent tuning
    sessions.

    Two mechanisms, both non-intrusive to the sessions' results:

    {b Bounded in-flight.}  At most [capacity] sessions hold a ticket at
    once.  {!try_admit} never blocks: when saturated it returns
    [Saturated retry_after] (seconds, estimated from an EWMA of
    completed-session wall times) and the caller replies
    reject-with-retry-after instead of queueing unboundedly.

    {b Fair-share rating budgets.}  An admitted session calls {!charge}
    from its {!Peak_util.Pool} job with its cumulative count of {e
    freshly computed} ratings (store replays are free — charging them
    would starve resumed sessions).  A ticket's level is that count plus
    its base, the least level among the admitted tickets when it was
    admitted (0 in an empty band): a newcomer joins the band at its
    current minimum, not at zero.  The call pauses the session while its
    level is more than [quantum] above the least admitted level, so
    concurrent sessions advance at matched rates.  A cheap session is
    never starved by a long one.  A newcomer joins level with the
    least-advanced session, so it lowers no session's budget, and the
    minimum rises with every newcomer's progress: a steady stream of
    cheap sessions does not starve a long one either.  The price is
    that a cheap session admitted beside a long one waits while the
    long one spends its quantum.  A session pauses by {!Peak_util.Pool.park}ing: its
    worker takes other work — the session still waiting for a domain
    that holds the minimum down, or other sessions' rating tasks — so a
    pause never keeps a domain from work that could use it.  The
    least-advanced session never pauses, which makes the discipline
    deadlock-free; and because pausing only ever delays work without
    reordering it, the per-session results remain bit-identical to solo
    runs.

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

val charge : t -> ticket -> abort:(unit -> bool) -> fresh:int -> unit
(** Record the session's cumulative fresh-rating count and pause while
    it is over fair-share budget.  Call it from inside a
    {!Peak_util.Pool} job: a pause parks the job.  Returns promptly once
    the controller is {!close}d, the ticket {!release}d, or [abort]
    turns true (re-evaluated on every {!kick}/state change — the
    cancellation hook). *)

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
