(** Counting interpreter.

    One [run] is one invocation of the tuning section under a concrete
    context.  The interpreter executes the CFG against a mutable
    environment and records, per basic block, how many times the block
    was entered — the [C_b] counts of the paper's Eq. 1 — and, per
    memory base, how many times it was read or written, which the
    runner's memory system charges.  Version timing never re-executes
    the interpreter per version: a code version's simulated time is a
    function of these counts and the version's per-block cycle table,
    which is what makes full Figure-7 sweeps tractable.

    The environment interns names into integer slots; the hot path
    ([compile] + [run_compiled] on a reused {!scratch}) executes
    three-address register code over those slots and performs no
    allocation in the steady state.  The string-keyed accessors below
    are a thin compatibility layer over the slot tables. *)

type env
(** Mutable execution environment: scalar values, array storage, and
    pointer targets, keyed by interned name slots.  A write to an
    undeclared name creates the binding (matching [Hashtbl.replace]
    semantics the original environment had); a read of a name never
    written raises {!Out_of_bounds}. *)

type result = {
  block_counts : int array;  (** Entry count per CFG block id. *)
  touches : int array;
      (** Accesses per memory base, by slot of {!bases}: slot [i] counts
          the reads and writes of base [i]. *)
}

val bases : Cfg.t -> string array
(** The memory bases a CFG touches — every array it indexes or stores
    to and every pointer it dereferences or stores through — once each,
    ascending by name.  The table numbers {!result.touches}, and a
    runner's memory system numbers its slots by it too, so the table is
    known from the CFG alone, before anything runs. *)

exception Out_of_bounds of string
(** Raised on an array access outside the declared extent. *)

exception Step_limit_exceeded of string

val make_env : Types.ts -> env
(** Environment with params/locals at 0.0, arrays zero-filled at their
    declared sizes, pointers at their declared pointees. *)

val copy_env : env -> env
(** Deep copy (used by RBR's save/restore and by tests). *)

val env_equal : env -> env -> bool
(** Name-keyed equality of the bound bindings of two environments
    (slot layouts may differ; only visible state is compared). *)

val set_scalar : env -> string -> float -> unit
val get_scalar : env -> string -> float
val set_array : env -> string -> float array -> unit
val get_array : env -> string -> float array

val set_pointer : env -> string -> string -> unit
(** [set_pointer env p target] retargets pointer [p] at scalar [target]. *)

val get_pointer : env -> string -> string
(** Current target scalar of a pointer; raises {!Out_of_bounds} on an
    unbound pointer. *)

val read_source : env -> Expr.source -> float
(** Current value of a context-variable source (scalar, constant-subscript
    array element, or pointer dereference). *)

(** {1 Compiled execution — the zero-allocation hot path} *)

type compiled
(** A CFG lowered to one flat array of three-address register code,
    bound to the specific environment it was compiled against.
    Compilation interns every name the CFG mentions into that
    environment, plus one hidden, never-bound slot per expression depth
    and per distinct constant; no accessor or {!env_equal} sees those. *)

type scratch
(** Preallocated per-invocation counters: block entries and base
    touches.  Reusing one scratch across invocations is what makes the
    steady-state loop allocation-free.  Not domain-safe — use one
    scratch per domain. *)

val compile : Cfg.t -> env -> compiled
val make_scratch : compiled -> scratch

val run_compiled : ?max_steps:int -> compiled -> scratch -> unit
(** Execute one invocation, mutating the compiled-against environment
    and accumulating counts into [scratch] (reset on entry).  Allocates
    nothing on the non-raising path.  [max_steps] (default 10e6 block
    transitions) guards against non-terminating sections. *)

val scratch_steps : scratch -> int
(** Total block entries recorded by the last [run_compiled]. *)

val result_of_scratch : scratch -> result
(** Fresh {!result} snapshot of the scratch counters. *)

val run : ?max_steps:int -> Cfg.t -> env -> result
(** Compatibility one-shot: [compile] + [run_compiled] + snapshot.
    Prefer the compiled API when invoking the same section repeatedly. *)

val eval : env -> Types.expr -> float
(** Expression evaluation against the environment (exposed for tests). *)
