(** Context-based rating — Section 2.2.

    Rate a version by averaging the execution times of invocations that
    occur under one specific context; invocations under other contexts
    still execute (and are charged to tuning time) but contribute no
    sample. *)

val rate :
  ?params:Rating.params ->
  Runner.t ->
  sources:Peak_ir.Expr.source list ->
  target:float array ->
  Peak_compiler.Version.t ->
  Rating.t
(** [target] is the context-variable value vector to match; [[||]] with
    empty [sources] matches every invocation (the single-context case).
    @raise Rating.No_samples if no invocation matched the target context
    within [max_invocations] — a silent NaN rating would otherwise be
    cached and poison the search. *)
