(** The tuning service's wire protocol.

    Newline-delimited JSON frames over a stream socket, in the store
    codec's style: every frame is one line carrying the protocol
    version ([v]) and a frame type tag ([t] — ["req"], ["resp"] or
    ["ev"]); decoders reject versions newer than {!version} with a
    one-line error.  Floats round-trip exactly through
    {!Peak_store.Codec.float_to_json}, so a session result received
    over the wire is byte-identical (re-serialized) to the store's
    [result.json] — the property the client fleet's bit-identity
    checks build on.

    A connection carries any number of requests.  Responses to one
    request arrive in order; in {!Stream} mode, progress {!event}
    frames (mirroring {!Peak_obs} instant/counter/span shapes) are
    interleaved before the final response. *)

val version : int
(** Current protocol version (1). *)

val max_frame : int
(** Maximum accepted frame length in bytes (1 MiB).  An over-long line
    is unrecoverable ([`Overflow]) — the connection must be closed. *)

(** {1 Endpoints} *)

type endpoint = Unix_sock of string | Tcp of string * int

val endpoint_of_string : string -> (endpoint, string) result
(** Parse ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val endpoint_to_string : endpoint -> string

(** {1 Protocol types} *)

type mode =
  | Detach  (** Reply [Accepted] and return; poll with [Status_of]. *)
  | Wait  (** Reply [Accepted], then the final [Result_r]/[Error_r]. *)
  | Stream  (** As [Wait], with progress events interleaved. *)

type submit_spec = {
  sb_benchmark : string;
  sb_machine : string;
  sb_dataset : string;  (** ["train"] or ["ref"]. *)
  sb_search : string;
      (** A {!Peak.Strategy.of_string} spelling — the submit carries the
          search strategy so a daemon run matches batch byte-for-byte. *)
  sb_method : string;  (** A method key or ["auto"]. *)
  sb_seed : int;
  sb_cap : int option;  (** Per-rating invocation cap; [None] = default. *)
  sb_mode : mode;
}

type request =
  | Submit of submit_spec
  | Resume of { rs_id : string; rs_mode : mode }
      (** Re-run a stored session by id; parameters are rebuilt from its
          stored metadata, so completed ratings replay instantly. *)
  | Status_of of string
  | Stream_of of string  (** Attach to a running session's progress. *)
  | Cancel_of of string
  | Stats_req
  | Ping

type state = Running | Done | Failed | Cancelled | Idle
(** A {!Status_r} carries only [Running] (the daemon runs the session),
    [Done] or [Idle] (read from the store, which keeps no reason for a
    session that ended without a result).  [Failed] and [Cancelled]
    appear only in the [state] argument of a stream's closing span. *)

val state_to_string : state -> string
val state_of_string : string -> (state, string) result

type status = { st_id : string; st_state : state; st_ratings : int }

type server_stats = {
  ss_active : int;  (** Sessions currently admitted. *)
  ss_capacity : int;  (** Admission bound. *)
  ss_completed : int;
  ss_rejected : int;
  ss_domains : int;  (** Pool width the sessions multiplex onto. *)
}

type response =
  | Accepted of { ac_id : string; ac_resumed : int }
      (** Session admitted (or attached); [ac_resumed] is the number of
          journal events replayed at open — [0] for a fresh session. *)
  | Rejected of { rj_id : string; rj_retry_after : float }
      (** Admission control is saturated; retry after the given number
          of seconds.  Never blocks the client. *)
  | Status_r of status
  | Result_r of { rr_id : string; rr_result : Peak_store.Codec.session_result }
  | Cancel_ack of string
  | Stats_r of server_stats
  | Pong
  | Error_r of string
      (** Typed one-line failure — malformed frames, unknown names,
          failed or cancelled sessions.  The connection stays usable
          (except after [`Overflow]). *)

type event =
  | Ev_instant of { ei_name : string; ei_args : (string * string) list }
  | Ev_counter of { ec_name : string; ec_value : int }
  | Ev_span of { es_name : string; es_dur : float; es_args : (string * string) list }

val mode_to_string : mode -> string
val mode_of_string : string -> (mode, string) result

(** {1 Codecs} — [of_json] returns [Error] with a one-line reason. *)

val request_to_json : request -> Peak_store.Json.t
val request_of_json : Peak_store.Json.t -> (request, string) result
val response_to_json : response -> Peak_store.Json.t
val response_of_json : Peak_store.Json.t -> (response, string) result
val event_to_json : event -> Peak_store.Json.t
val event_of_json : Peak_store.Json.t -> (event, string) result

val frame_tag : Peak_store.Json.t -> (string, string) result
(** The frame's [t] tag (["req"] / ["resp"] / ["ev"]) — how a client
    distinguishes interleaved events from the final response. *)

(** {1 Framing} *)

type reader

val reader_of_fd : Unix.file_descr -> reader

val read_frame :
  reader ->
  [ `Frame of Peak_store.Json.t  (** One decoded frame. *)
  | `Malformed of string  (** Undecodable line; the stream continues. *)
  | `Overflow  (** Line over {!max_frame}; close the connection. *)
  | `Eof ]
(** Block until one full line is available and decode it.  Empty lines
    are skipped; a read error on the fd reads as end-of-stream. *)

val write_frame : Unix.file_descr -> Peak_store.Json.t -> unit
(** Write one frame and its newline, handling short writes.
    @raise Unix.Unix_error as [Unix.write] does (e.g. [EPIPE]). *)
