(** Control-flow graphs.

    A tuning section is lowered from the structured IR into a CFG of basic
    blocks, which is the representation the paper's analyses run on:
    reaching definitions / UD chains for the Figure-1 context-variable
    analysis, liveness for [Input(TS)], and basic-block entry counting for
    the MBR execution-time model (Eq. 1: [T_TS = Σ T_b · C_b]). *)

open Types

type simple =
  | SAssign of var * expr
  | SStore of var * expr * expr
  | SPtrStore of var * expr
  | SPtrSet of var * var
  | SCall of string

type terminator =
  | Goto of int
  | Branch of expr * int * int  (** [Branch (cond, if_true, if_false)]. *)
  | Exit

type bblock = {
  id : int;
  stmts : simple array;
  term : terminator;
  loop_depth : int;  (** Structured nesting depth; 0 at top level. *)
  is_loop_header : bool;
}

type t = private {
  ts : ts;
  blocks : bblock array;
  entry : int;
}

val of_ts : ts -> t
(** Lower a tuning section.  Loop bounds of [For] are evaluated into
    fresh temporaries at loop entry, matching the IR's entry-evaluation
    semantics.  Fresh temporaries are named ["__tN"] and are added to the
    set of locals for analysis purposes. *)

val n_blocks : t -> int
val block : t -> int -> bblock

val successors : bblock -> int list

val predecessors : t -> int -> int list

val control_conditions : t -> (int * expr) list
(** The branch conditions — the "control statements" of the Fig. 1
    analysis — as (block id, condition) pairs in block order. *)

val temporaries : t -> var list
(** Fresh temporaries introduced by lowering. *)

val pp : Format.formatter -> t -> unit
