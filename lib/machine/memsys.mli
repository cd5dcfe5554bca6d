(** Invocation-granularity memory-system model.

    Running the interpreter per code version would make Figure-7-scale
    sweeps intractable, so version timing works from per-invocation
    access summaries.  This module keeps cache state at base granularity
    — an LRU set of resident arrays bounded by the machine's L2 capacity
    — and converts an invocation's touch counts into extra cycles beyond
    the L1-hit baseline already priced into block costs.  Cold bases
    charge one miss per touched line; bases larger than the cache
    additionally charge capacity misses on a line-reuse model.  The
    address-level {!Cache} simulator validates this model in the tests.

    The state is indexed by {e slot}: a section's memory bases numbered
    once, ascending by name ({!Peak_ir.Interp.bases}), the same numbering
    as an interpreter result's touch counts.  A charge walks the slots in
    that order, so the cost, the residency it leaves and the jitter
    draws are those of charging the bases one by one in name order.

    This is the state the improved RBR method manipulates: its
    preconditioning execution is charged like a timed one, so both timed
    versions observe a warm cache (Section 2.4.2), while basic RBR lets
    the first timed version pay the cold misses. *)

type t

val create : ?rng:Peak_util.Rng.t -> Machine.t -> bytes:int array -> t
(** A memory system over [Array.length bytes] slots, where [bytes.(s)]
    is the extent an invocation touches in slot [s]'s base (a slot of
    [0] bytes is never charged).

    With [rng], capacity-miss traffic carries multiplicative jitter
    (conflict placement the base-granularity model cannot track) — the
    source of the comparatively noisy ratings of large-footprint sections
    like EQUAKE's smvp (paper Section 5.1).  Cold misses stay exact. *)

val flush : t -> unit
(** Empty the residency set (e.g. simulating a context switch or the gap
    between whole-program runs). *)

val charge : t -> int array -> float
(** [charge t touches]: extra cycles for an invocation that touched
    slot [s] [touches.(s)] times; updates residency.  Slots with no
    touches cost nothing and keep their LRU position.
    @raise Invalid_argument if [touches] does not have one count per
    slot. *)

val is_resident : t -> int -> bool
(** Whether slot [s] is in the residency set. *)

val resident_bytes : t -> int
