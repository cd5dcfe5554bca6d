(** The 38 optimization flags implied by GCC 3.3 [-O3].

    The paper's search space (Section 5.2) is exactly this flag set: the
    options [-O3] turns on, which Iterative Elimination prunes one by
    one.  Names and optimization levels follow the GCC 3.3 manual; the
    behavioural model for each flag lives in {!Effects}. *)

type t = {
  index : int;  (** Position in {!all}; also the bit used by {!Optconfig}. *)
  name : string;  (** Without the [-f] prefix, e.g. ["strict-aliasing"]. *)
  level : int;  (** Lowest -O level that enables the flag (1, 2 or 3). *)
  description : string;
}

val all : t array
(** All 38 flags, -O1 group first, then -O2, then -O3. *)

val count : int
(** 38 — asserted at startup. *)

val by_name : string -> t option
(** The flag named [name] (without the [-f] prefix) — a hash-table
    lookup built once at module load. *)

val by_index : int -> t
(** @raise Invalid_argument outside [0, count). *)

val gcc_name : t -> string
(** ["-f" ^ name]. *)
