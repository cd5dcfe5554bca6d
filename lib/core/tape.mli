(** Invocation tape: one interpretation per invocation ordinal.

    Versions never re-run the interpreter (Eq. 1): one interpretation of
    an invocation yields its block counts, and every version's time is
    computed from those counts.  A tape owns what that interpretation
    needs — a trace, an environment, the compiled CFG, the interpreter
    scratch and the class cache — and yields, for each invocation
    {e ordinal} (the number of invocations consumed before it, across
    pass wraps), three values, each at the point where a {!Runner} reads
    it:
    - the {e context}: the values of the section's candidate context
      sources ({!Context_analysis}), read after the trace's setup;
    - the {!Peak_ir.Interp.result}: block counts and per-base touch
      counts, stored once per ordinal;
    - the RBR save/restore {e payload} ({!Snapshot.measure_bytes}),
      measured after the interpreter has run.

    Every reader consumes ordinals 0, 1, 2, … and an ordinal's values do
    not depend on the reader, so readers can share them.  A {e shared}
    tape records each ordinal it reaches and serves any number of
    runners, on any domains: extension is serialized by a mutex, always
    in ordinal order, and a record is immutable once published, so the
    contents never depend on which reader triggered an extension.  A
    {e private} tape serves one reader, keeps only its newest ordinal and
    computes context and payload only when that reader asks for them.

    A failure while extending — the trace's setup or the interpreter
    raising, e.g. {!Peak_ir.Interp.Out_of_bounds} — publishes nothing
    for that ordinal: the shared tape re-raises the same exception to
    every reader that reaches it.  A candidate source or payload read
    that raises is kept in the record and re-raised only to a reader
    that asks for that value, as a reader owning its own trace would
    have seen it. *)

type t

val shared :
  Tsection.t -> name:string -> length:int -> (unit -> Peak_workload.Trace.t) -> t
(** [shared tsec ~name ~length build] is a session's tape over the trace
    [build ()].  A trace is a single-use generator, so [build] must
    return a fresh one (never the trace a profile pass consumed).  It is
    called, and the environment allocated, on the first extension only:
    a session whose every rating replays from a store never pays for
    them.  [name] and [length] are the trace's, known up front because
    runners seed and wrap passes on them; a built trace that disagrees
    raises [Invalid_argument].  Records are retained until the tape is
    dropped. *)

val of_trace : Tsection.t -> Peak_workload.Trace.t -> t
(** A private tape over [trace], for one sequential reader. *)

val tsection : t -> Tsection.t
val name : t -> string

val length : t -> int
(** The trace's pass length, in invocations. *)

val seek : t -> int -> unit
(** [seek t k] makes ordinal [k] readable.  A private tape sets it up —
    [k] must follow its newest ordinal; a shared tape extends through
    [k] if no reader has yet.  Raises what the trace's setup or the
    interpreter raised at that ordinal. *)

val context_into : t -> int -> Peak_ir.Interp.source_handle array -> float array -> unit
(** [context_into t k sources dst] writes the values of [sources] at
    ordinal [k], after setup, to [dst.(0)], [dst.(1)], …, allocating
    nothing.  A private tape reads its environment through the handles,
    before the ordinal is interpreted.  A shared tape answers from the
    record, whose candidates it read through handles of its own at the
    first extension; each requested source ({!Peak_ir.Interp.handle_source})
    must be one of them, or [Invalid_argument].  A source that cannot be
    read raises what {!Peak_ir.Interp.read_handle_into} raises, to the
    reader that asks, in source order. *)

val result : t -> int -> Peak_ir.Interp.result
(** The interpreter's result at ordinal [k] (the class cache's, when the
    trace declares the ordinal's class already seen).  On a shared tape
    it is the published record's; on a private one it is {e lent}: an
    ordinal the class cache does not hold reads the interpreter's
    scratch, which the next ordinal's interpretation overwrites.  A
    reader copies what it keeps past its next {!seek}.  Class-cache
    entries and shared records are copies no later interpretation
    touches.  No reader may mutate a result. *)

val payload : t -> int -> int
(** Bytes of the modified input set at ordinal [k] after interpretation
    (a private tape interprets first if it has not yet). *)

(** {1 Accounting} *)

val recorded : t -> int
(** Ordinals set up so far: the highest ordinal reached plus one. *)

val interpreted : t -> int
(** Interpreter runs (class-cache misses). *)

val steps : t -> int
(** Interpreter block entries over all runs. *)
