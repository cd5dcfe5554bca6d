open Peak_store

let version = 1
let max_frame = 1_048_576

let ( let* ) r f = Result.bind r f

(* ---------------- endpoints ---------------- *)

type endpoint = Unix_sock of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let endpoint_of_string s =
  let prefixed p =
    let n = String.length p in
    if String.length s > n && String.sub s 0 n = p then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match prefixed "unix:" with
  | Some path when path <> "" -> Ok (Unix_sock path)
  | Some _ -> Error "unix: endpoint needs a socket path"
  | None -> (
      match prefixed "tcp:" with
      | None -> Error (Printf.sprintf "%S: expected unix:PATH or tcp:HOST:PORT" s)
      | Some rest -> (
          match String.rindex_opt rest ':' with
          | None -> Error "tcp: endpoint needs HOST:PORT"
          | Some i -> (
              let host = String.sub rest 0 i in
              let port = String.sub rest (i + 1) (String.length rest - i - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
              | _ -> Error (Printf.sprintf "%S: bad tcp host or port" s))))

(* ---------------- protocol types ---------------- *)

type mode = Detach | Wait | Stream

type submit_spec = {
  sb_benchmark : string;
  sb_machine : string;
  sb_dataset : string;
  sb_search : string;
  sb_method : string;
  sb_seed : int;
  sb_cap : int option;
  sb_mode : mode;
}

type request =
  | Submit of submit_spec
  | Resume of { rs_id : string; rs_mode : mode }
  | Status_of of string
  | Stream_of of string
  | Cancel_of of string
  | Stats_req
  | Ping

type state = Running | Done | Failed | Cancelled | Idle

type status = { st_id : string; st_state : state; st_ratings : int }

type server_stats = {
  ss_active : int;
  ss_capacity : int;
  ss_completed : int;
  ss_rejected : int;
  ss_domains : int;
}

type response =
  | Accepted of { ac_id : string; ac_resumed : int }
  | Rejected of { rj_id : string; rj_retry_after : float }
  | Status_r of status
  | Result_r of { rr_id : string; rr_result : Codec.session_result }
  | Cancel_ack of string
  | Stats_r of server_stats
  | Pong
  | Error_r of string

type event =
  | Ev_instant of { ei_name : string; ei_args : (string * string) list }
  | Ev_counter of { ec_name : string; ec_value : int }
  | Ev_span of { es_name : string; es_dur : float; es_args : (string * string) list }

(* ---------------- codecs ----------------
   Same discipline as the store codec: every frame carries the protocol
   version and a type tag, decoders reject the future with a one-line
   error, floats round-trip exactly through [Codec.float_to_json]. *)

let envelope tag fields =
  Json.Obj (("v", Json.Int version) :: ("t", Json.String tag) :: fields)

let checked tag v =
  match Json.get_int "v" v with
  | Error _ -> Error "missing protocol version"
  | Ok n when n > version ->
      Error (Printf.sprintf "protocol v%d is newer than v%d" n version)
  | Ok _ ->
      let* t = Json.get_str "t" v in
      if t = tag then Ok ()
      else Error (Printf.sprintf "expected a %S frame, got %S" tag t)

let frame_tag v = Json.get_str "t" v

let mode_to_string = function Detach -> "detach" | Wait -> "wait" | Stream -> "stream"

let mode_of_string = function
  | "detach" -> Ok Detach
  | "wait" -> Ok Wait
  | "stream" -> Ok Stream
  | other -> Error (Printf.sprintf "unknown mode %S (detach | wait | stream)" other)

let state_to_string = function
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"
  | Idle -> "idle"

let state_of_string = function
  | "running" -> Ok Running
  | "done" -> Ok Done
  | "failed" -> Ok Failed
  | "cancelled" -> Ok Cancelled
  | "idle" -> Ok Idle
  | other -> Error (Printf.sprintf "unknown session state %S" other)

let args_to_json args =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args)

let args_of_json v =
  match v with
  | Json.Obj kvs ->
      List.fold_left
        (fun acc (k, jv) ->
          let* acc = acc in
          let* s = Json.to_str jv in
          Ok ((k, s) :: acc))
        (Ok []) kvs
      |> Result.map List.rev
  | _ -> Error "event args: expected an object"

let request_to_json req =
  match req with
  | Submit sp ->
      envelope "req"
        ([
           ("op", Json.String "submit");
           ("benchmark", Json.String sp.sb_benchmark);
           ("machine", Json.String sp.sb_machine);
           ("dataset", Json.String sp.sb_dataset);
           ("search", Json.String sp.sb_search);
           ("method", Json.String sp.sb_method);
           ("seed", Json.Int sp.sb_seed);
           ("mode", Json.String (mode_to_string sp.sb_mode));
         ]
        @ match sp.sb_cap with None -> [] | Some n -> [ ("cap", Json.Int n) ])
  | Resume { rs_id; rs_mode } ->
      envelope "req"
        [
          ("op", Json.String "resume");
          ("id", Json.String rs_id);
          ("mode", Json.String (mode_to_string rs_mode));
        ]
  | Status_of id -> envelope "req" [ ("op", Json.String "status"); ("id", Json.String id) ]
  | Stream_of id -> envelope "req" [ ("op", Json.String "stream"); ("id", Json.String id) ]
  | Cancel_of id -> envelope "req" [ ("op", Json.String "cancel"); ("id", Json.String id) ]
  | Stats_req -> envelope "req" [ ("op", Json.String "stats") ]
  | Ping -> envelope "req" [ ("op", Json.String "ping") ]

let request_of_json v =
  let* () = checked "req" v in
  let* op = Json.get_str "op" v in
  match op with
  | "submit" ->
      let* sb_benchmark = Json.get_str "benchmark" v in
      let* sb_machine = Json.get_str "machine" v in
      let* sb_dataset = Json.get_str "dataset" v in
      let* sb_search = Json.get_str "search" v in
      let* sb_method = Json.get_str "method" v in
      let* sb_seed = Json.get_int "seed" v in
      let* sb_mode =
        let* m = Json.get_str "mode" v in
        mode_of_string m
      in
      let* sb_cap =
        match Json.member "cap" v with
        | Error _ -> Ok None
        | Ok jv ->
            let* n = Json.to_int jv in
            if n >= 1 then Ok (Some n) else Error "member \"cap\": must be >= 1"
      in
      Ok (Submit { sb_benchmark; sb_machine; sb_dataset; sb_search; sb_method; sb_seed; sb_cap; sb_mode })
  | "resume" ->
      let* rs_id = Json.get_str "id" v in
      let* rs_mode =
        let* m = Json.get_str "mode" v in
        mode_of_string m
      in
      Ok (Resume { rs_id; rs_mode })
  | "status" ->
      let* id = Json.get_str "id" v in
      Ok (Status_of id)
  | "stream" ->
      let* id = Json.get_str "id" v in
      Ok (Stream_of id)
  | "cancel" ->
      let* id = Json.get_str "id" v in
      Ok (Cancel_of id)
  | "stats" -> Ok Stats_req
  | "ping" -> Ok Ping
  | other -> Error (Printf.sprintf "unknown op %S" other)

let response_to_json resp =
  match resp with
  | Accepted { ac_id; ac_resumed } ->
      envelope "resp"
        [
          ("r", Json.String "accepted");
          ("id", Json.String ac_id);
          ("resumed", Json.Int ac_resumed);
        ]
  | Rejected { rj_id; rj_retry_after } ->
      envelope "resp"
        [
          ("r", Json.String "rejected");
          ("id", Json.String rj_id);
          ("retry_after", Codec.float_to_json rj_retry_after);
        ]
  | Status_r st ->
      envelope "resp"
        [
          ("r", Json.String "status");
          ("id", Json.String st.st_id);
          ("state", Json.String (state_to_string st.st_state));
          ("ratings", Json.Int st.st_ratings);
        ]
  | Result_r { rr_id; rr_result } ->
      envelope "resp"
        [
          ("r", Json.String "result");
          ("id", Json.String rr_id);
          ("result", Codec.session_result_to_json rr_result);
        ]
  | Cancel_ack id -> envelope "resp" [ ("r", Json.String "cancelled"); ("id", Json.String id) ]
  | Stats_r ss ->
      envelope "resp"
        [
          ("r", Json.String "stats");
          ("active", Json.Int ss.ss_active);
          ("capacity", Json.Int ss.ss_capacity);
          ("completed", Json.Int ss.ss_completed);
          ("rejected", Json.Int ss.ss_rejected);
          ("domains", Json.Int ss.ss_domains);
        ]
  | Pong -> envelope "resp" [ ("r", Json.String "pong") ]
  | Error_r msg -> envelope "resp" [ ("r", Json.String "error"); ("error", Json.String msg) ]

let response_of_json v =
  let* () = checked "resp" v in
  let* r = Json.get_str "r" v in
  match r with
  | "accepted" ->
      let* ac_id = Json.get_str "id" v in
      let* ac_resumed = Json.get_int "resumed" v in
      Ok (Accepted { ac_id; ac_resumed })
  | "rejected" ->
      let* rj_id = Json.get_str "id" v in
      let* retry = Json.member "retry_after" v in
      let* rj_retry_after = Codec.float_of_json retry in
      if Float.is_finite rj_retry_after && rj_retry_after >= 0.0 then
        Ok (Rejected { rj_id; rj_retry_after })
      else Error "member \"retry_after\": must be finite and non-negative"
  | "status" ->
      let* st_id = Json.get_str "id" v in
      let* st_state =
        let* s = Json.get_str "state" v in
        state_of_string s
      in
      let* st_ratings = Json.get_int "ratings" v in
      Ok (Status_r { st_id; st_state; st_ratings })
  | "result" ->
      let* rr_id = Json.get_str "id" v in
      let* rv = Json.member "result" v in
      let* rr_result = Codec.session_result_of_json rv in
      Ok (Result_r { rr_id; rr_result })
  | "cancelled" ->
      let* id = Json.get_str "id" v in
      Ok (Cancel_ack id)
  | "stats" ->
      let* ss_active = Json.get_int "active" v in
      let* ss_capacity = Json.get_int "capacity" v in
      let* ss_completed = Json.get_int "completed" v in
      let* ss_rejected = Json.get_int "rejected" v in
      let* ss_domains = Json.get_int "domains" v in
      Ok (Stats_r { ss_active; ss_capacity; ss_completed; ss_rejected; ss_domains })
  | "pong" -> Ok Pong
  | "error" ->
      let* msg = Json.get_str "error" v in
      Ok (Error_r msg)
  | other -> Error (Printf.sprintf "unknown response kind %S" other)

(* Streamed progress mirrors the tracer's event shapes (instant /
   counter / span), so a client can treat the stream as a remote
   [Peak_obs] feed. *)
let event_to_json ev =
  match ev with
  | Ev_instant { ei_name; ei_args } ->
      envelope "ev"
        [
          ("ev", Json.String "instant");
          ("name", Json.String ei_name);
          ("args", args_to_json ei_args);
        ]
  | Ev_counter { ec_name; ec_value } ->
      envelope "ev"
        [
          ("ev", Json.String "counter");
          ("name", Json.String ec_name);
          ("value", Json.Int ec_value);
        ]
  | Ev_span { es_name; es_dur; es_args } ->
      envelope "ev"
        [
          ("ev", Json.String "span");
          ("name", Json.String es_name);
          ("dur", Codec.float_to_json es_dur);
          ("args", args_to_json es_args);
        ]

let event_of_json v =
  let* () = checked "ev" v in
  let* kind = Json.get_str "ev" v in
  match kind with
  | "instant" ->
      let* ei_name = Json.get_str "name" v in
      let* a = Json.member "args" v in
      let* ei_args = args_of_json a in
      Ok (Ev_instant { ei_name; ei_args })
  | "counter" ->
      let* ec_name = Json.get_str "name" v in
      let* ec_value = Json.get_int "value" v in
      Ok (Ev_counter { ec_name; ec_value })
  | "span" ->
      let* es_name = Json.get_str "name" v in
      let* d = Json.member "dur" v in
      let* es_dur = Codec.float_of_json d in
      let* es_dur =
        if Float.is_finite es_dur && es_dur >= 0.0 then Ok es_dur
        else Error "member \"dur\": must be finite and non-negative"
      in
      let* a = Json.member "args" v in
      let* es_args = args_of_json a in
      Ok (Ev_span { es_name; es_dur; es_args })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

(* ---------------- framing ----------------
   Newline-delimited JSON.  The reader buffers raw bytes off the fd and
   hands back one decoded frame at a time; a line over [max_frame] is an
   [`Overflow] (the stream cannot be resynchronized, the caller must
   close), any other undecodable line is a recoverable [`Malformed]. *)

(* Unframed bytes are [buf.[start, stop)]; a read fills the free space
   after them, and a full buffer doubles.  Reading allocates nothing: on a
   daemon's serving domain, garbage drives GC stops of every domain. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable eof : bool;
}

let reader_of_fd fd = { fd; buf = Bytes.create 4096; start = 0; stop = 0; eof = false }

let chunk_size = 65536 (* what one [Unix.read] moves at most *)

let rec newline r i =
  if i >= r.stop then None else if Bytes.get r.buf i = '\n' then Some i else newline r (i + 1)

let rec read_frame r =
  match newline r r.start with
  | Some i ->
      let line = Bytes.sub_string r.buf r.start (i - r.start) in
      r.start <- i + 1;
      if String.length line > max_frame then `Overflow
      else if String.trim line = "" then read_frame r
      else (
        match Json.of_string line with
        | Ok j -> `Frame j
        | Error e -> `Malformed e)
  | None ->
      let pending = r.stop - r.start in
      if r.eof then
        if pending = 0 then `Eof
        else begin
          r.start <- r.stop;
          `Malformed "truncated frame at end of stream"
        end
      else if pending > max_frame then `Overflow
      else begin
        let buf = if pending = Bytes.length r.buf then Bytes.create (2 * pending) else r.buf in
        Bytes.blit r.buf r.start buf 0 pending;
        r.buf <- buf;
        r.start <- 0;
        r.stop <- pending;
        match Unix.read r.fd r.buf r.stop (min chunk_size (Bytes.length r.buf - r.stop)) with
        | 0 ->
            r.eof <- true;
            read_frame r
        | n ->
            r.stop <- r.stop + n;
            read_frame r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_frame r
        | exception Unix.Unix_error (_, _, _) ->
            r.eof <- true;
            read_frame r
      end

let write_frame fd j =
  let line = Json.to_string j ^ "\n" in
  let bytes = Bytes.of_string line in
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then begin
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    end
  in
  go 0
