open Peak_compiler

type mode = Local | Remote

type t = {
  mode : mode;
  compile_cycles : float;
  (* per config: the simulated time its compile finishes (Remote) or
     [neg_infinity] marker for already-built (Local after stall) *)
  ready_at : (Optconfig.t, float) Hashtbl.t;
  mutable server_free_at : float;  (** Remote server availability. *)
  mutable compiles : int;
}

let create ?(compile_seconds = 0.002) mode (machine : Peak_machine.Machine.t) =
  {
    mode;
    compile_cycles = compile_seconds *. machine.Peak_machine.Machine.clock_ghz *. 1e9;
    ready_at = Hashtbl.create 64;
    server_free_at = 0.0;
    compiles = 0;
  }

let request t ~now config =
  if not (Hashtbl.mem t.ready_at config) then begin
    match t.mode with
    | Local ->
        (* intent only; the stall happens when the version is needed *)
        Hashtbl.replace t.ready_at config infinity
    | Remote ->
        let start = Float.max now t.server_free_at in
        let finish = start +. t.compile_cycles in
        t.server_free_at <- finish;
        t.compiles <- t.compiles + 1;
        Hashtbl.replace t.ready_at config finish
  end

let stall_for t ~now config =
  request t ~now config;
  match Hashtbl.find_opt t.ready_at config with
  | Some ready when ready = infinity ->
      (* Local: compile right now, blocking *)
      t.compiles <- t.compiles + 1;
      Hashtbl.replace t.ready_at config now;
      t.compile_cycles
  | Some ready -> Float.max 0.0 (ready -. now)
  | None -> 0.0

let compiles t = t.compiles
