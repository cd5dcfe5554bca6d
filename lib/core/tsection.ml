(** A tuning section with all its static analyses, computed once.

    Everything PEAK derives at compile time about a TS (Section 3's
    instrumentation step) hangs off this bundle: the CFG, static
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
}

let make ts =
  let cfg = Cfg.of_ts ts in
  let features = Features.of_cfg cfg in
  let pointsto = Pointsto.analyze cfg in
  let defuse = Defuse.analyze cfg pointsto in
  let liveness = Liveness.analyze cfg pointsto in
  { ts; cfg; features; pointsto; defuse; liveness; bases = Interp.bases cfg }

let name t = t.ts.Types.name

let has_impure_calls t =
  Array.exists
    (fun (b : Cfg.bblock) ->
      Array.exists
        (function Cfg.SCall f -> not (Types.is_pure_external f) | _ -> false)
        b.stmts)
    t.cfg.blocks

let save_restore_bytes t = Liveness.save_restore_bytes t.liveness
