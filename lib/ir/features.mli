(** Static per-block features.

    The compiler substrate prices a code version by transforming these
    features under a set of optimization flags and mapping the result to
    cycles on a machine description.  The features are exactly the
    block-level quantities classic scalar optimizations act on: ALU and
    multiply/divide counts, memory references, redundant subexpressions
    (targets for CSE/GCSE), live scalar pressure (register allocation and
    the strict-aliasing interaction of Section 5.2), distinct memory
    bases (alias analysis), branchiness and loop nesting (if-conversion,
    unrolling, scheduling). *)

type block = {
  alu : int;  (** Additive/compare/logical operations. *)
  muldiv : int;  (** Multiplies, divides, modulo. *)
  transcendental : int;  (** sqrt and pure external calls. *)
  mem_read : int;
  mem_write : int;
  redundancy : int;
      (** Occurrences of repeated nontrivial subexpressions within the
          block — the opportunity count for (G)CSE. *)
  pressure : int;
      (** Register-pressure proxy: distinct scalars + distinct memory
          bases (base addresses occupy registers) + the deepest
          expression tree (Sethi–Ullman temporaries). *)
  bases : string list;  (** Distinct arrays/pointers accessed. *)
  pointer_bases : string list;
      (** The subset of [bases] accessed through pointers — the C-style
          ambiguity that strict aliasing disambiguates at a live-range
          cost (Section 5.2). *)
  has_branch : bool;
  loop_depth : int;
  is_loop_header : bool;
  impure_calls : int;
}

type ts = {
  blocks : block array;  (** Indexed by CFG block id. *)
  max_pressure : int;
  alias_pairs : int;
      (** Pairs of distinct memory bases co-accessed in some block: each is
          an ambiguity that alias-analysis-dependent flags must respect. *)
  n_loops : int;
}

val of_cfg : Cfg.t -> ts

val vector_dims : string list
(** Names of the components of {!vector}, in order. *)

val vector : ts -> float array
(** Whole-TS static summary vector (block/loop counts, operation
    totals, pressure and aliasing summaries, branch and pointer-access
    shares) used for cross-program similarity in the knowledge base.
    Every component is finite by construction; length equals
    [List.length vector_dims]. *)
