(** Canonical, versioned serialization for everything the persistent
    tuning store holds.

    Every record carries a format version ([v]); decoders reject
    versions newer than {!version} with a one-line error instead of
    misreading them.  Floats round-trip exactly ([%.17g]), which is a
    prerequisite for replayed (resumed) tuning sessions being
    bit-identical to uninterrupted ones; non-finite floats are encoded
    as the strings ["nan"] / ["inf"] / ["-inf"].

    Configurations serialize as their sorted enabled-flag names plus
    their stable {!Peak_compiler.Optconfig.digest}; the decoder
    recomputes the digest and fails on a mismatch, so a store written
    against a different flag table is detected rather than silently
    reinterpreted. *)

open Peak_compiler

val version : int
(** Current store format version (5).  v2 added the per-event
    convergence flag and the session result's attempted-method chain;
    v1 records decode with [converged = true] and an empty chain.  v3
    added fault-tolerance bookkeeping: per-event quarantine reason and
    retry count, the session result's quarantine list and retry total,
    and the session metadata's serialized fault plan; v2 records decode
    with no failures, no retries, and no fault plan (["-"]).  v4 added
    the session result's deterministic {!metrics} block (v3 results
    decode with [r_metrics = None]) and tightened numeric hygiene: in a
    v4+ record a NaN eval, threshold, cycle count or trajectory gain is
    a decode error, and an infinite event eval is only accepted as the
    quarantine/no-samples sentinel (it must carry a failure reason).
    v1–v3 records keep decoding leniently.  v5 added first-class search
    strategy identity to the session result ([r_strategy] + the
    per-stage [r_stages] spend); v1–v4 results decode with
    [r_strategy = ""] and [r_stages = []]. *)

val fnv64 : string -> string
(** Stable 16-hex-digit FNV-1a 64 digest of a string — used for
    context keys. *)

val method_names : string list
(** The canonical rating-method names (["CBR"; "MBR"; "RBR"; "AVG";
    "WHL"]) — the store's mirror of [Peak.Method.names] (the store sits
    below the core library in the dependency order; a core-side test
    keeps the two in lockstep).  Decoders reject method strings outside
    this set. *)

val valid_method : string -> (string, string) result
(** [Ok name] iff [name] is in {!method_names}. *)

val valid_method_request : string -> (string, string) result
(** As {!valid_method} but for session metadata's requested method:
    a lower-case canonical name or ["auto"]. *)

val search_keys : string list
(** The canonical search-strategy keys (["ie"; "be"; "ce"; "random";
    "ff"; "ose"; "staged"]) — the store's mirror of
    [Peak.Strategy.keys] (same lockstep arrangement as
    {!method_names}; ["random"] stands for the parameterized
    ["random<n>"] family). *)

val valid_search_key : string -> (string, string) result
(** [Ok name] iff [name] is in {!search_keys}, is ["random<n>"] with a
    positive [n], or is [""] — the pre-v5 marker a v1-v4 [result.json]
    decodes to, which must keep round-tripping once re-encoded. *)

(** {1 Serialized types} *)

type consumption = { c_invocations : int; c_passes : int; c_cycles : float }
(** Simulated resources a rating consumed — replayed into the session
    ledger on resume so the tuning-time accounting is also
    bit-identical. *)

type event = {
  e_method : string;  (** Rating method name, e.g. ["RBR"]. *)
  e_ctx : string;  (** Context digest (seed, dataset, params, base, idx). *)
  e_base : string;  (** Digest of the base configuration, ["-"] if none. *)
  e_idx : int;  (** Candidate index within its batch (-1 for the base). *)
  e_config : Optconfig.t;
  e_eval : float;
  e_converged : bool;
      (** Whether the rating's VAR converged — what lets a resumed
          session replay the driver's fallback-probe decisions without
          re-simulating them.  [true] for decoded v1 events (which
          predate probes). *)
  e_used : consumption;
  e_fail : string option;
      (** Quarantine reason (["crashed"], ["hung"], ["wrong-output"])
          when the config was condemned rather than rated; [None] for a
          clean rating.  [None] for decoded v2 events. *)
  e_retries : int;
      (** Transient failures absorbed before this outcome ([0] for
          decoded v2 events). *)
}
(** One rating event — one journal line. *)

type session_meta = {
  m_id : string;
  m_benchmark : string;
  m_machine : string;
  m_dataset : string;
  m_search : string;
  m_seed : int;
  m_threshold : float;
  m_params : string;  (** [Rating.params_signature] of the rating params. *)
  m_method : string;  (** Requested method, ["auto"] when unforced. *)
  m_start : Optconfig.t;  (** Search start configuration (warm starts). *)
  m_faults : string;
      (** Serialized fault plan ([Fault.to_string]) the session ran
          under, or ["-"] for none — resume rebuilds the plan from it.
          ["-"] for decoded v2 sessions. *)
}

type attempt = { at_method : string; at_converged : bool; at_ratings : int }
(** Mirror of [Peak.Method.attempt]: one entry of the driver's §3
    fallback chain (abandoned probes first, the committed method
    last). *)

type method_metrics = { mm_method : string; mm_ratings : int; mm_invocations : int }
(** Per-method accounting: how many ratings the method produced and the
    trace invocations they consumed. *)

type metrics = {
  x_methods : method_metrics list;
      (** Sorted by canonical method order; methods that never rated are
          omitted. *)
  x_quarantined : int;  (** Configurations condemned by fault oracles. *)
  x_retries : int;  (** Transient-failure retries absorbed. *)
  x_invocations : int;  (** Total rating invocations consumed. *)
  x_cycles : float;  (** Total simulated cycles charged to the session. *)
}
(** The session result's deterministic metrics block (v4).  Every field
    is a pure function of the rating outcomes in submission order —
    never of wall-clock time — so a traced, untraced, parallel or
    resumed run of the same session serializes the identical block. *)

type stage = {
  st_label : string;  (** Stage label, e.g. ["screen"]. *)
  st_ratings : int;  (** Ratings spent in the stage. *)
  st_flags : int;  (** Flag-universe size the stage worked on. *)
}
(** One stage boundary of a finished search (v5). *)

type session_result = {
  r_method : string;  (** Method actually used. *)
  r_strategy : string;
      (** Canonical search-strategy key (v5); [""] for decoded v1–v4
          results, whose strategy identity lives only in
          {!session_meta}. *)
  r_stages : stage list;
      (** Per-stage rating spend in execution order ([[]] for decoded
          v1–v4 results). *)
  r_attempts : attempt list;
      (** The attempted-method chain ([[]] for decoded v1 results). *)
  r_best : Optconfig.t;
  r_ratings : int;
  r_iterations : int;
  r_trajectory : (Optconfig.t * float) list;
  r_tuning_cycles : float;
  r_tuning_seconds : float;
  r_passes : int;
  r_invocations : int;
  r_quarantined : (Optconfig.t * string) list;
      (** Condemned configurations in submission order with the reason
          each was condemned ([[]] for decoded v2 results). *)
  r_retries : int;
      (** Transient-failure retries absorbed across the whole session
          ([0] for decoded v2 results). *)
  r_metrics : metrics option;
      (** Deterministic metrics block ([None] for decoded v1–v3
          results). *)
}
(** The durable summary of a [Driver.result] (profile and advice are
    recomputed deterministically on resume, so only the outcome is
    stored). *)

(** {1 Codecs} — [of_json] returns [Error] with a one-line reason. *)

val float_to_json : float -> Json.t
val float_of_json : Json.t -> (float, string) result

val optconfig_to_json : Optconfig.t -> Json.t
val optconfig_of_json : Json.t -> (Optconfig.t, string) result

val trajectory_to_json : (Optconfig.t * float) list -> Json.t
val trajectory_of_json : Json.t -> ((Optconfig.t * float) list, string) result

val attempt_to_json : attempt -> Json.t
val attempt_of_json : Json.t -> (attempt, string) result

val stage_to_json : stage -> Json.t
val stage_of_json : Json.t -> (stage, string) result

val metrics_to_json : metrics -> Json.t
val metrics_of_json : Json.t -> (metrics, string) result

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result

val session_meta_to_json : session_meta -> Json.t
val session_meta_of_json : Json.t -> (session_meta, string) result

val session_result_to_json : session_result -> Json.t
val session_result_of_json : Json.t -> (session_result, string) result
