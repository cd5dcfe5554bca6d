(** Reaching definitions and UD chains at statement granularity.

    The Figure-1 context-variable analysis walks, for every variable used
    in a control statement, the chain of definitions that may reach that
    use ([Find_UD_Chain] in the paper), recursing through the variables
    each definition reads until it reaches the TS entry.  This module
    provides the underlying reaching-definitions dataflow: for any
    (site, location) pair, the set of definition sites whose values may be
    observed there, where the distinguished {!constructor:Entry}
    definition stands for "defined before the tuning section". *)

type def =
  | Entry  (** The location's value on entry to the TS. *)
  | At of int * int  (** Definition by statement [idx] of block [id]. *)

type site =
  | Stmt of int * int  (** Use inside statement [idx] of block [id]. *)
  | Term of int  (** Use in the branch condition terminating block [id]. *)

type t

val analyze : Cfg.t -> Pointsto.t -> t
(** Fixpoint reaching-definitions over the CFG.  Array stores are weak
    updates (an array definition never kills prior ones); pointer stores
    strongly update a unique un-retargeted pointee and weakly update
    otherwise; impure calls weakly define every location. *)

val reaching : t -> site -> Loc.t -> def list
(** Definitions of [loc] that may reach the use site, sorted. *)

val value_sources : Cfg.simple -> Expr.source list
(** The value sources a simple statement reads. *)

