(** A tuning section with all its static analyses, computed once.

    Everything PEAK derives at compile time about a TS (Section 3's
    instrumentation step) hangs off this bundle: the CFG, static block
    features, points-to facts, reaching definitions, liveness, and the
    table of memory bases. *)

open Peak_ir

type t = {
  ts : Types.ts;
  cfg : Cfg.t;
  features : Features.ts;
  pointsto : Pointsto.t;
  defuse : Defuse.t;
  liveness : Liveness.t;
  bases : string array;
      (** The memory bases the section touches, ascending by name
          ({!Interp.bases}): the slots of an interpretation's touch
          counts and of a runner's memory system. *)
}

val make : Types.ts -> t

val name : t -> string

val has_impure_calls : t -> bool
(** Whether the section calls externals with unknown side effects —
    which disqualifies re-execution (Section 2.4.1). *)

val save_restore_bytes : t -> int
(** Static upper bound on the RBR save/restore payload (see
    {!Liveness.save_restore_bytes}; {!Snapshot.measure_bytes} gives the
    dynamic value). *)
