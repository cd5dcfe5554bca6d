(** The offline profile run (Section 3).

    "For off-line tuning, our compiler chooses the appropriate rating
    method by doing a profile run using the tuning input."  One pass over
    the train trace under the [-O3] version gathers everything the
    consultant and the raters need: the observed contexts and their time
    shares (CBR), the block-count samples and component model (MBR), the
    average invocation cost, and the per-pass totals used for tuning-time
    accounting. *)

type context_stat = {
  values : float array;  (** The context variables' values. *)
  count : int;
  time_share : float;  (** Fraction of TS time spent under this context. *)
}

type census
(** Every distinct context in one flat record: each context's
    last-invocation vector in one float array, with its count and time
    share in arrays beside it.  It holds no record, array or list cell
    per context; {!contexts} builds those. *)

type context_info =
  | Cbr_ok of {
      sources : Peak_ir.Expr.source list;
          (** Context variables after run-time-constant pruning. *)
      n_contexts : int;  (** Distinct contexts observed. *)
      head : context_stat option;
          (** The dominant context, the first of {!contexts}; [None]
              only when the pass ran no invocation. *)
      census : census;  (** Every context, unsorted: read it through {!contexts}. *)
      runtime_constant_arrays : string list;
      pruned : Peak_ir.Expr.source list;  (** Dropped run-time constants. *)
    }
  | Cbr_no of string

type t = {
  n_invocations : int;
  avg_invocation_cycles : float;
  context : context_info;
  components : Component_analysis.t;
  count_samples : int array array;
  impure_calls : bool;
  block_weights : float array;  (** -O3 cycles per entry, per block. *)
  avg_component_counts : float array;
  dominant_component : int;
  ts_pass_cycles : float;  (** TS cycles in one train pass under -O3. *)
}

val run :
  ?seed:int ->
  ?max_count_samples:int ->
  Tsection.t ->
  Peak_workload.Trace.t ->
  Peak_machine.Machine.t ->
  t

val n_contexts : t -> int option
(** Number of distinct contexts, when CBR's analysis succeeded. *)

val dominant_context : t -> context_stat option
(** The context with the largest time share (CBR's target), when CBR's
    analysis succeeded and the pass ran. *)

val dominant_share : t -> float option

val contexts : t -> context_stat list
(** Every distinct context, by descending time share, then by the order
    of the context table's hash buckets (descending), then by first
    occurrence; [[]] when CBR's analysis failed.  Each call sorts the
    census and builds the list afresh: it costs one stable sort of the
    distinct contexts, so read it only where CBR applies. *)
