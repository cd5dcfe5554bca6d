(** The Remote Optimizer of Figure 6.

    "Optimized versions are compiled dynamically and inserted into the
    code using dynamic linking ... The Remote Optimizer can be any
    compiler, which may run on the local or a remote processor"
    (Section 4.2).  This models that component as a single compile server
    with a fixed per-version compile time:

    - in [Local] mode the tuning process and the compiler share the
      processor, so every compile stalls tuning for its full duration;
    - in [Remote] mode compiles overlap with the tuning run: a version
      requested ahead of time (the search {e prefetches} each
      iteration's candidates) is usually ready when its rating begins,
      and only the residual wait stalls.

    Time is the tuning ledger's simulated cycle count; compile durations
    are given in (simulated) seconds and converted at the machine's
    clock.  Like the invocation traces, realistic compile durations are
    scaled down ~100x so their ratio to rating time matches the paper's
    environment. *)

type mode = Local | Remote

type t

val create :
  ?compile_seconds:float -> mode -> Peak_machine.Machine.t -> t
(** Default compile time: 2 ms of simulated time per version. *)

val request : t -> now:float -> Peak_compiler.Optconfig.t -> unit
(** Enqueue a compile (idempotent per configuration).  In [Remote] mode
    the server starts it as soon as it is free; in [Local] mode requests
    only record intent — the cost is paid at {!stall_for}. *)

val stall_for : t -> now:float -> Peak_compiler.Optconfig.t -> float
(** Cycles the tuning process must stall before the version is usable at
    time [now].  [Local]: the full compile (if not yet built).  [Remote]:
    the remaining server time for it, counting queue order.  Marks the
    version built at [now + stall]. *)

val compiles : t -> int
(** Versions compiled so far. *)

