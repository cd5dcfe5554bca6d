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
(** Raised on an array access outside the declared extent.  A subscript
    is checked as a float, [0 <= i < length], before it is truncated,
    so nan, infinities and values past the int range raise too; the
    message prints the floored subscript ([a[-1]], [a[nan]],
    [a[5000000000000000000]]). *)

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

(** {1 Handles — names resolved once per environment}

    The string-keyed accessors above hash the name on every call.  A
    {e handle} resolves a name to its slot on first use in an
    environment and keeps that (environment, slot) pair, so a trace's
    per-invocation setup, or a reader of context sources, looks up no
    name after the first invocation.

    Contract:
    - The pair is one immutable value behind one mutable field.  A use
      reads it once and takes its slot only when its environment is the
      caller's; otherwise the handle resolves again against the caller's
      environment.  So one handle used on two environments (or on an
      environment and its {!copy_env}) reads and writes each one's own
      slot, at the price of a lookup whenever the environment changes.
    - A handle write to an undeclared name binds it, exactly as
      {!set_scalar} does; a handle read raises what the string accessor
      raises ({!Out_of_bounds} for an unknown or unbound name).
    - A handle is mutable state.  Create it where its user is created —
      inside the [trace dataset ~seed] function that builds a trace, or
      in the runner or tape that reads it, not at module top level — so
      that no two domains share one.  Sharing
      would stay correct (each use checks its environment) but the
      domains would keep evicting each other's pair. *)

type handle
(** A scalar name. *)

val handle : string -> handle

val set_handle : handle -> env -> float -> unit
(** {!set_scalar} through a handle. *)

val get_handle : handle -> env -> float
(** {!get_scalar} through a handle. *)

type array_handle
(** An array name. *)

val array_handle : string -> array_handle

val get_array_handle : array_handle -> env -> float array
(** {!get_array} through a handle. *)

type source_handle
(** A context-variable source ({!Expr.source}): a scalar, a
    constant-subscript array element, or a pointer dereference. *)

val source_handle : Expr.source -> source_handle

val handle_source : source_handle -> Expr.source
(** The source [h] was created for. *)

val read_handle_into : source_handle -> env -> float array -> int -> unit
(** [read_handle_into h env dst i] stores the current value of [h]'s
    source in [dst.(i)]; nothing is allocated on the non-raising path.
    A source that cannot be read raises {!Out_of_bounds} and writes
    nothing: an unknown or unbound scalar, array or pointer (as
    {!get_scalar}, {!get_array} and {!get_pointer} raise), a constant
    subscript outside the array (["a[10] (context read)"]), or a
    non-constant subscript, which is no context source at all. *)

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

val lent_result : scratch -> result
(** The scratch counters themselves, as a {!result} whose arrays are the
    scratch's own: the next {!run_compiled} on the scratch overwrites
    them.  A reader that keeps counts past that, or could mutate them,
    takes {!result_of_scratch} instead. *)

val run : ?max_steps:int -> Cfg.t -> env -> result
(** Compatibility one-shot: [compile] + [run_compiled] + snapshot.
    Prefer the compiled API when invoking the same section repeatedly. *)

val eval : env -> Types.expr -> float
(** Expression evaluation against the environment (exposed for tests). *)
