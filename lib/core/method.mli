(** The rating-method layer: one definition of "what a rating method
    is" (Section 3).

    Every consumer — the tuning driver, the fallback harness, the CLI,
    the persistent store's codecs and the bench grids — speaks this one
    type; there is no second method enum anywhere in the tree.  A method
    has a stable name, an applicability judgment against a {!Profile.t}
    ({!applicable}), and a {!prepare} step that closes over the
    profile's context/component data and returns the rating function
    itself.

    The paper's §3 fallback rule ("if the system cannot achieve enough
    accuracy ... within some number of invocations, it switches to the
    next applicable rating method") operates over the applicable subset
    of {!auto_chain}, in the consultant's preference order CBR, MBR,
    RBR.  AVG and WHL are the Section 5.2 baselines — always ratable,
    never chosen automatically. *)

type t = Cbr | Mbr | Rbr | Avg | Whl

exception Not_applicable of string
(** Raised by {!prepare} when a method structurally cannot rate the
    given profile (e.g. CBR on a section whose Figure-1 context analysis
    failed).  Distinct from {!Rating.No_samples}, which signals a data
    condition met while rating (budget exhausted without a usable
    sample): [Not_applicable] means the caller forced a method the
    section does not support. *)

val all : t list
(** The registry, in canonical order: CBR, MBR, RBR, AVG, WHL. *)

val auto_chain : t list
(** The methods auto mode may choose, in the consultant's preference
    order: CBR, MBR, RBR. *)

val name : t -> string
(** Stable upper-case name (["CBR"]) — the canonical spelling used in
    store journals, session results and reports. *)

val key : t -> string
(** Stable lower-case name (["cbr"]) — the spelling used in CLI
    arguments and session ids. *)

val of_string : string -> t option
(** Case-insensitive parse of {!name}/{!key}. *)

val request_of_string : string -> (t option, string) result
(** A method request: ["auto"] (any case) is [None], which the tuning
    driver resolves from its own profiling pass (with the §3 fallback)
    instead of profiling twice; anything else goes through
    {!of_string}.  The error is a one-line ["unknown rating method ..."]
    message. *)

val names : string list
(** [List.map name all]. *)

val keys : string list
(** [List.map key all]. *)

val describe : t -> string
(** One-line description of how the method rates. *)

val condition : t -> string
(** One-line applicability condition (the consultant's rule), for
    generated documentation and [peak-tune methods]. *)

val default_max_contexts : int
(** 4 — chosen so the Table 1 benchmarks partition as in the paper. *)

val default_max_components : int
(** 5. *)

val applicable :
  ?max_contexts:int -> ?max_components:int -> t -> Profile.t -> (unit, string) result
(** The consultant's applicability judgment: [Error reason] explains the
    exclusion (e.g. ["CBR: 7 contexts exceed the limit of 4"]).  AVG and
    WHL are always applicable. *)

(** What {!prepare} returns: the rating function, closed over the
    profile.  [Absolute] methods rate a version by itself (the EVAL is a
    time; relative comparisons divide two EVALs); [Relative] methods
    (RBR) natively rate a version against a base. *)
type prepared =
  | Absolute of (Runner.t -> Peak_compiler.Version.t -> Rating.t)
  | Relative of (Runner.t -> base:Peak_compiler.Version.t -> Peak_compiler.Version.t -> Rating.t)

val prepare :
  ?params:Rating.params -> non_ts_cycles:float -> t -> Profile.t -> prepared
(** The method's rater over [profile] (default params
    {!Rating.default_params}).
    @raise Not_applicable when the profile lacks what the method needs.
    [prepare] is deliberately more permissive than {!applicable}: a
    method the consultant would reject on cost grounds (CBR with too
    many contexts) can still be forced, matching the paper's MGRID_CBR
    bar. *)

(** {1 Fallback attempts} *)

type attempt = {
  a_method : t;
  a_converged : bool;
      (** False for a method abandoned after a failed convergence probe;
          true for the method finally committed. *)
  a_ratings : int;
      (** Ratings performed under this method: 1 for a failed probe, the
          search's rating count for the committed method. *)
}
(** One entry of the driver's attempted-method chain, the committed
    method last. *)

val chain_string : attempt list -> string
(** Compact rendering of an attempt chain, e.g. ["CBR>MBR"] (abandoned
    methods first, committed method last) or just ["RBR"]. *)
