(* An in-process tuning daemon and a closed loop of client connections
   against it: each connection submits its next session only after the
   previous one returned.  Shared by the fleet and replay workloads. *)

open Peak_serve

let now = Unix.gettimeofday

let or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* ---------------- daemon lifecycle ---------------- *)

type daemon = { daemon : Daemon.t; server : Thread.t; conns : Client.conn array }

let ping conn =
  match Client.request conn Wire.Ping with
  | Ok Wire.Pong -> ()
  | Ok _ -> failwith "ping: unexpected response"
  | Error e -> failwith ("ping: " ^ e)

(* Two pool domains and room for every connection's session, so no
   submit is refused.  Each connection is confirmed by one Ping, which
   also proves the accept loop serves. *)
let start ~store ~sock ~clients =
  let config =
    {
      Daemon.store;
      endpoint = Wire.Unix_sock sock;
      domains = 2;
      max_sessions = clients;
      quantum = 64;
    }
  in
  let daemon =
    Peak_obs.with_span ~cat:"bench.daemon" "daemon.create" (fun _ ->
        or_fail "daemon" (Daemon.create config))
  in
  let server = Thread.create Daemon.serve daemon in
  let conns =
    Array.init clients (fun _ ->
        let c = or_fail "connect" (Client.connect (Wire.Unix_sock sock)) in
        ping c;
        c)
  in
  { daemon; server; conns }

let stop d =
  Array.iter Client.close d.conns;
  Peak_obs.with_span ~cat:"bench.daemon" "daemon.stop" (fun _ ->
      Daemon.stop d.daemon;
      Thread.join d.server)

(* The wall times of [reps] start-ups; every start-up but the last is
   stopped again, the last one is returned. *)
let timed_starts ~reps ~store ~sock ~clients =
  let rec go k times =
    let t0 = now () in
    let d = start ~store ~sock ~clients in
    let times = (now () -. t0) :: times in
    if k >= reps then (d, times)
    else begin
      stop d;
      go (k + 1) times
    end
  in
  go 1 []

(* ---------------- the session sequence ---------------- *)

type item = { spec : Wire.submit_spec; id : string; key : int }
(** One submit; [key] identifies what the workload drew (a benchmark or
    a stored session). *)

(* Hands out items round by round ([round r] is deterministic in [r]
   and every round has the same length), never an id another connection
   has in flight: the first eligible item is swapped forward, so the
   sequence stays a series of rounds. *)
type dispenser = {
  mutex : Mutex.t;
  round : int -> item array;
  mutable buf : item array;
  mutable filled : int;
  mutable rounds : int;
  mutable round_len : int;
  mutable next : int;
  inflight : (string, unit) Hashtbl.t;
}

let dispenser round =
  {
    mutex = Mutex.create ();
    round;
    buf = [||];
    filled = 0;
    rounds = 0;
    round_len = 0;
    next = 0;
    inflight = Hashtbl.create 4;
  }

let ensure d upto =
  while d.filled < upto do
    let r = d.round d.rounds in
    d.rounds <- d.rounds + 1;
    d.round_len <- Array.length r;
    if d.filled + Array.length r > Array.length d.buf then begin
      let grown = Array.make (2 * (d.filled + Array.length r)) r.(0) in
      Array.blit d.buf 0 grown 0 d.filled;
      d.buf <- grown
    end;
    Array.blit r 0 d.buf d.filled (Array.length r);
    d.filled <- d.filled + Array.length r
  done

(* The next item with its position in the sequence, or [None] once the
   deadline has passed and the last round handed out is whole, so every
   phase runs the same mix: whole rounds, at least one. *)
let take d ~deadline =
  Mutex.lock d.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock d.mutex) @@ fun () ->
  if now () >= deadline && d.next > 0 && d.next mod d.round_len = 0 then None
  else begin
    let rec eligible j =
      ensure d (j + 1);
      if Hashtbl.mem d.inflight d.buf.(j).id then eligible (j + 1) else j
    in
    let j = eligible d.next in
    let it = d.buf.(j) in
    d.buf.(j) <- d.buf.(d.next);
    d.buf.(d.next) <- it;
    d.next <- d.next + 1;
    Hashtbl.replace d.inflight it.id ();
    Some (d.next - 1, it)
  end

let release d id =
  Mutex.lock d.mutex;
  Hashtbl.remove d.inflight id;
  Mutex.unlock d.mutex

(* ---------------- the closed loop ---------------- *)

type sample = {
  item : item;
  seq : int;  (** Position in the phase's sequence; its round is [seq / round_len]. *)
  t_submit : float;
  t_accepted : float;
  t_result : float;
  resumed : int;  (** Journal events the daemon replayed at open. *)
  outcome : (Peak_store.Codec.session_result, string) result;
}

type phase = {
  samples : sample list;
  pings : float list;  (** Round-trip seconds of the Ping before each submit. *)
  lost : string list;  (** Connections that failed outside a session. *)
  t_start : float;
  t_end : float;  (** When the last session returned. *)
  round_len : int;  (** Items per round. *)
  rejected : int;  (** The daemon's rejected-submit count at the end. *)
}

(* One Submit, timed on the client side: send, wait for Accepted, wait
   for the result.  Every call sits in a span tagged with the session id
   (no-ops when tracing is off).  [broken] marks a transport failure,
   after which the connection is unusable. *)
let submit conn ~seq it =
  let args = [ ("id", it.id) ] in
  let sid =
    Peak_obs.begin_span ~cat:"bench.session" ~args
      (Printf.sprintf "session:%s:%s" it.spec.Wire.sb_benchmark it.id)
  in
  let step cat f = Peak_obs.with_span ~parent:sid ~cat ~args (cat ^ ":" ^ it.id) (fun _ -> f ()) in
  let broken = ref false in
  let transport = function
    | Ok r -> Ok r
    | Error e ->
        broken := true;
        Error e
  in
  let t_submit = now () in
  let accepted =
    match transport (step "bench.send" (fun () -> Client.send conn (Wire.Submit it.spec))) with
    | Error e -> Error ("send: " ^ e)
    | Ok () -> (
        match transport (step "bench.accept" (fun () -> Client.next_response conn)) with
        | Ok (Wire.Accepted { ac_id; ac_resumed }) when ac_id = it.id -> Ok ac_resumed
        | Ok (Wire.Accepted { ac_id; _ }) -> Error ("accepted the wrong session " ^ ac_id)
        | Ok (Wire.Rejected _) -> Error "rejected by admission control"
        | Ok (Wire.Error_r e) -> Error e
        | Ok _ -> Error "unexpected response to submit"
        | Error e -> Error e)
  in
  let t_accepted = now () in
  let resumed, outcome =
    match accepted with
    | Error e -> (-1, Error e)
    | Ok resumed -> (
        ( resumed,
          match transport (step "bench.result" (fun () -> Client.next_response conn)) with
          | Ok (Wire.Result_r { rr_id; rr_result }) when rr_id = it.id -> Ok rr_result
          | Ok (Wire.Result_r { rr_id; _ }) -> Error ("result for the wrong session " ^ rr_id)
          | Ok (Wire.Error_r e) -> Error e
          | Ok _ -> Error "unexpected response while waiting for the result"
          | Error e -> Error e ))
  in
  let t_result = now () in
  Peak_obs.end_span sid;
  ({ item = it; seq; t_submit; t_accepted; t_result; resumed; outcome }, !broken)

let stats conn =
  Peak_obs.with_span ~cat:"bench.stats" "stats" (fun _ ->
      match Client.request conn Wire.Stats_req with
      | Ok (Wire.Stats_r s) -> s.Wire.ss_rejected
      | Ok _ -> failwith "stats: unexpected response"
      | Error e -> failwith ("stats: " ^ e))

(* Every connection runs Ping, Submit, Ping, Submit, … until the
   dispenser stops handing out items.  A connection that loses the
   daemon stops early; its failure is recorded in [lost]. *)
let run_phase d disp ~seconds =
  let t_start = now () in
  let deadline = t_start +. seconds in
  let lock = Mutex.create () in
  let samples = ref [] and pings = ref [] and lost = ref [] in
  let record f =
    Mutex.lock lock;
    f ();
    Mutex.unlock lock
  in
  let client conn =
    let rec loop () =
      let t0 = now () in
      Peak_obs.with_span ~cat:"bench.ping" "ping" (fun _ -> ping conn);
      let rtt = now () -. t0 in
      record (fun () -> pings := rtt :: !pings);
      match take disp ~deadline with
      | None -> ()
      | Some (seq, it) ->
          let s, broken = submit conn ~seq it in
          release disp it.id;
          record (fun () -> samples := s :: !samples);
          if broken then
            record (fun () -> lost := ("connection lost at " ^ it.id) :: !lost)
          else loop ()
    in
    try loop () with Failure e -> record (fun () -> lost := e :: !lost)
  in
  (* The connections run on a domain of their own: the daemon's runner
     and connection threads share the calling domain's runtime lock, and
     a client thread waiting for it would add up to a scheduler tick to
     every client-side timestamp. *)
  Domain.join
    (Domain.spawn (fun () ->
         Array.map (Thread.create client) d.conns |> Array.iter Thread.join));
  let samples = List.rev !samples in
  let t_end = List.fold_left (fun acc s -> Float.max acc s.t_result) t_start samples in
  let rejected = stats d.conns.(0) in
  { samples; pings = !pings; lost = !lost; t_start; t_end; round_len = disp.round_len; rejected }
