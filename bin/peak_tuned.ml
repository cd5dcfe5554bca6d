(* peak-tuned: the multi-tenant tuning service daemon.

   Serves one store directory over a Unix-domain or TCP socket,
   multiplexing concurrent tuning sessions onto a shared worker pool
   under admission control.  SIGTERM/SIGINT drain cleanly: in-flight
   sessions stop at their next progress callback with consistent
   journals, so [peak-tune client resume] completes them
   bit-identically. *)

open Cmdliner
open Peak_serve

let die msg =
  prerr_endline ("peak-tuned: " ^ msg);
  exit 1

let or_die = function Ok v -> v | Error e -> die e

let store_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Tuning store directory to serve (created if missing).")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen endpoint: $(b,unix:PATH) or $(b,tcp:HOST:PORT).  Default: \
           $(b,unix:STORE/peak-tuned.sock).")

let domains_arg =
  Arg.(
    value & opt int 2
    & info [ "j"; "domains" ] ~docv:"N"
        ~doc:
          "Worker domains that run sessions and their ratings.  Up to N admitted \
           sessions compute at once; the rest wait for a domain.  The main domain only \
           serves connections and computes no session.")

let max_sessions_arg =
  Arg.(
    value & opt int 8
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Admission capacity: sessions beyond $(docv) in flight are rejected with a \
           retry-after hint.")

let quantum_arg =
  Arg.(
    value & opt int 64
    & info [ "quantum" ] ~docv:"N"
        ~doc:
          "Fair-share quantum: a session pauses, giving its domain to other work, once \
           it is $(docv) freshly computed ratings ahead of the least-advanced active \
           session.")

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Record the daemon's span/event trace and write it to $(docv) in Chrome trace \
           format on exit.")

let run store listen domains max_sessions quantum trace =
  if domains < 1 then die "domains must be >= 1";
  if max_sessions < 1 then die "max-sessions must be >= 1";
  if quantum < 1 then die "quantum must be >= 1";
  let endpoint =
    match listen with
    | None -> Wire.Unix_sock (Filename.concat store "peak-tuned.sock")
    | Some addr -> or_die (Wire.endpoint_of_string addr)
  in
  (match trace with None -> () | Some _ -> Peak_obs.install ());
  let export_trace () =
    match (trace, Peak_obs.export ()) with
    | Some path, Some doc -> (
        match open_out path with
        | oc ->
            output_string oc doc;
            close_out oc;
            Printf.printf "peak-tuned: trace written to %s\n%!" path
        | exception Sys_error e -> prerr_endline ("peak-tuned: trace write failed: " ^ e))
    | _ -> ()
  in
  let d =
    or_die (Daemon.create { Daemon.store; endpoint; domains; max_sessions; quantum })
  in
  let stop_on _ = Daemon.stop d in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on);
  Printf.printf "peak-tuned: serving %s on %s (%d worker domains, %d sessions max)\n%!"
    store
    (Wire.endpoint_to_string endpoint)
    domains max_sessions;
  Daemon.serve d;
  export_trace ();
  print_endline "peak-tuned: drained"

let main =
  Cmd.v
    (Cmd.info "peak-tuned" ~version:"1.0.0"
       ~doc:
         "Multi-tenant tuning service: serve a store over a socket, multiplexing \
          concurrent sessions onto one worker pool with admission control.")
    Term.(
      const run $ store_arg $ listen_arg $ domains_arg $ max_sessions_arg $ quantum_arg
      $ trace_file_arg)

let () = exit (Cmd.eval main)
