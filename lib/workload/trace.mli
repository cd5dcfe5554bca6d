(** Invocation traces.

    A trace is one program run's worth of tuning-section invocations: an
    initializer that fills the environment once (program startup), and a
    per-invocation setup that writes the values the enclosing program
    would have computed before calling the TS — the invocation's
    {e context}.

    A trace is a single-use generator, not merely deterministic in its
    seed: its closures may carry state across calls (MCF's setup
    advances an RNG the trace captured; [Drift.apply]'s [init] latches
    scalars into a [ref]).  Two environments driven by one trace may
    therefore diverge; a consumer that needs the stream again builds a
    fresh trace from the same seed, which replays it bit-identically.

    A setup runs once per invocation, in every whole pass (the profile's
    [train] pass, an evaluation's [ref] pass), so it looks no name up:
    it writes, and reads, through {!Peak_ir.Interp.handle}s that the
    [trace dataset ~seed] function creates along with the setup closure,
    each resolved once per environment.  A handle is mutable, so none
    lives at module top level, where two domains building traces would
    share it.  The string-keyed accessors stay for [init], which runs
    once per pass.

    [classes]: when the trace knows that two invocations present exactly
    the same workload (same context, hence same block counts), it labels
    them with the same class id, enabling the execution harness to reuse
    interpreter results.  Irregular traces have no class function.

    [mutated_arrays]: arrays the {e setup} rewrites between invocations.
    The context analysis uses this to decide whether an array that
    influences control flow is a run-time constant (fixed problem
    structure, as in EQUAKE's sparse matrix) or genuinely varying input
    (as in MCF's arc costs). *)

type t = {
  name : string;
  length : int;
  init : Peak_ir.Interp.env -> unit;
  setup : int -> Peak_ir.Interp.env -> unit;
  class_of : (int -> int) option;
  mutated_arrays : string list;
}

type dataset = Train | Ref

val dataset_name : dataset -> string

val dataset_of_string : string -> (dataset, string) result
(** Case-insensitive inverse of {!dataset_name}; the error is a one-line
    ["unknown dataset ..."] message. *)

val make :
  name:string ->
  length:int ->
  ?init:(Peak_ir.Interp.env -> unit) ->
  ?class_of:(int -> int) ->
  ?mutated_arrays:string list ->
  (int -> Peak_ir.Interp.env -> unit) ->
  t
(** [make ~name ~length setup] builds a trace; [init] defaults to a
    no-op. *)

val scaled_length : dataset -> int -> int
(** Ref runs are three times the train length (the ref data sets of SPEC
    run substantially longer; the factor only needs to preserve the
    paper's "ref rates more versions per run" observation). *)
