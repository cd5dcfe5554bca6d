(** Dominator tree and natural loops of a CFG.

    The lowering records loop structure syntactically (nesting depth and
    header marks); this module recovers the same facts from the graph
    alone — immediate dominators via the Cooper–Harvey–Kennedy iteration,
    back edges, and natural loops — so graph-level consumers don't depend
    on provenance, and the two views can be checked against each other
    (see the soundness property tests). *)

type t

val analyze : Cfg.t -> t

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry block and for blocks
    unreachable from the entry. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: every path from the entry to [b] passes [a]
    (reflexive). *)

val reachable : t -> int -> bool

val back_edges : t -> (int * int) list
(** Edges (tail → header) with the header dominating the tail. *)

val loop_headers : t -> int list

val natural_loop : t -> header:int -> int list
(** Sorted blocks of the header's natural loop (header included) —
    the union over its back edges.  Empty if [header] heads no loop. *)

val loop_depth : t -> int -> int
(** Number of natural loops containing the block. *)
