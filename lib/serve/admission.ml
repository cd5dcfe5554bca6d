type ticket = {
  tk_serial : int;
  tk_base : int;  (* the band's minimum at admission, where a newcomer joins *)
  mutable tk_fresh : int;
  (* a session parked over budget: its abort hook and its resume *)
  mutable tk_parked : ((unit -> bool) * (unit -> unit)) option;
}

type t = {
  mutex : Mutex.t;
  capacity : int;
  quantum : int;
  active : (int, ticket) Hashtbl.t;
  mutable serial : int;
  mutable completed : int;
  mutable rejected : int;
  mutable ewma : float;  (* seconds per completed session, 0 until one finishes *)
  mutable closed : bool;
}

type verdict = Admitted of ticket | Saturated of float

type stats = { a_active : int; a_capacity : int; a_completed : int; a_rejected : int }

let create ~capacity ~quantum =
  if capacity < 1 then invalid_arg "Admission.create: capacity must be >= 1";
  if quantum < 1 then invalid_arg "Admission.create: quantum must be >= 1";
  {
    mutex = Mutex.create ();
    capacity;
    quantum;
    active = Hashtbl.create 32;
    serial = 0;
    completed = 0;
    rejected = 0;
    ewma = 0.0;
    closed = false;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let note_inflight t = Peak_obs.gauge "serve.inflight" (Hashtbl.length t.active)

(* A saturated submit is told when to come back: roughly when the next
   active session should finish, from the EWMA of completed session
   wall times.  Before any completion there is no estimate — quote a
   small constant so clients retry promptly. *)
let retry_after t =
  let per_session = if t.ewma > 0.0 then t.ewma else 0.05 in
  Float.max 0.01 (per_session /. float_of_int t.capacity)

(* A ticket's place in the fair-share band: the fresh ratings it has
   charged, counted from where it joined. *)
let level tk = tk.tk_base + tk.tk_fresh

let min_level t = Hashtbl.fold (fun _ tk acc -> min acc (level tk)) t.active max_int

let try_admit t =
  locked t @@ fun () ->
  if t.closed || Hashtbl.length t.active >= t.capacity then begin
    t.rejected <- t.rejected + 1;
    Peak_obs.count "serve.rejected";
    Saturated (retry_after t)
  end
  else begin
    t.serial <- t.serial + 1;
    let tk_base = if Hashtbl.length t.active = 0 then 0 else min_level t in
    let tk = { tk_serial = t.serial; tk_base; tk_fresh = 0; tk_parked = None } in
    Hashtbl.replace t.active tk.tk_serial tk;
    Peak_obs.count "serve.admitted";
    note_inflight t;
    Admitted tk
  end

(* Callers hold the mutex. *)
let over_budget t tk abort =
  (not t.closed) && (not (abort ()))
  && Hashtbl.mem t.active tk.tk_serial
  && level tk > min_level t + t.quantum

(* Callers hold the mutex: take the resumes of every parked ticket now
   within budget, for the caller to run once it has let go of the
   mutex. *)
let take_wakes t =
  Hashtbl.fold
    (fun _ tk acc ->
      match tk.tk_parked with
      | Some (abort, resume) when not (over_budget t tk abort) ->
          tk.tk_parked <- None;
          resume :: acc
      | _ -> acc)
    t.active []

(* Run [f] under the mutex, then resume whoever its change let go. *)
let changing t f =
  let r, wakes =
    locked t (fun () ->
        let r = f () in
        (r, take_wakes t))
  in
  List.iter (fun resume -> resume ()) wakes;
  r

let charge t tk ~abort ~fresh =
  (* this ticket's advance may have raised the minimum *)
  let over =
    changing t (fun () ->
        tk.tk_fresh <- fresh;
        over_budget t tk abort)
  in
  if over then
    Peak_util.Pool.park (fun resume ->
        let parked =
          locked t (fun () ->
              over_budget t tk abort
              && begin
                   tk.tk_parked <- Some (abort, resume);
                   true
                 end)
        in
        if not parked then resume ())

let release t tk ~wall =
  let parked =
    changing t (fun () ->
        if Hashtbl.mem t.active tk.tk_serial then begin
          Hashtbl.remove t.active tk.tk_serial;
          t.completed <- t.completed + 1;
          t.ewma <- (if t.ewma = 0.0 then wall else (0.8 *. t.ewma) +. (0.2 *. wall));
          note_inflight t
        end;
        let p = tk.tk_parked in
        tk.tk_parked <- None;
        p)
  in
  Option.iter (fun (_, resume) -> resume ()) parked

let kick t = changing t ignore

let close t = changing t (fun () -> t.closed <- true)

let stats t =
  locked t @@ fun () ->
  {
    a_active = Hashtbl.length t.active;
    a_capacity = t.capacity;
    a_completed = t.completed;
    a_rejected = t.rejected;
  }
