(* Metrics, correctness checks and the run report.  The last line of
   standard output is the machine-readable result; everything before it,
   and the report file, carries each metric's sample count, percentile
   or base. *)

module Json = Peak_store.Json

type metric = { name : string; value : float; unit_ : string; how : string }

let metric name unit_ value how = { name; value; unit_; how }

type check = { c_name : string; c_ok : bool; c_detail : string }

let check c_name c_ok c_detail = { c_name; c_ok; c_detail }

(* ---------------- the machine the run happened on ---------------- *)

(* The first value [fmt] reads from a line of [path]; [nan] when the
   file is unreadable or no line matches. *)
let scan_file path fmt =
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line -> (
                try Scanf.sscanf line fmt Fun.id
                with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
          in
          scan ())

let loadavg1 () = scan_file "/proc/loadavg" "%f"

(* Peak resident set size (VmHWM) of this process, in MiB. *)
let peak_rss_mb () = scan_file "/proc/self/status" "VmHWM: %f kB" /. 1024.0

(* CPU time the hypervisor gave to other guests, all CPUs, in seconds
   (USER_HZ = 100). *)
let steal_s () =
  scan_file "/proc/stat" "cpu %_f %_f %_f %_f %_f %_f %_f %f" /. 100.0

type env = { nproc : int; ocaml : string; load1 : float; steal0 : float }

let env () =
  {
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    load1 = loadavg1 ();
    steal0 = steal_s ();
  }

(* ---------------- output ---------------- *)

let float_json f = if Float.is_finite f then Json.Float f else Json.Null

let metric_json m =
  Json.Obj
    [
      ("value", float_json m.value);
      ("unit", Json.String m.unit_);
      ("how", Json.String m.how);
    ]

let print_human ~header ~env metrics checks =
  Printf.printf "%s\n" header;
  Printf.printf "machine: nproc=%d ocaml=%s loadavg1=%.2f (at start) steal=%.2f s (during run)\n"
    env.nproc env.ocaml env.load1
    (steal_s () -. env.steal0);
  List.iter
    (fun m -> Printf.printf "  %-28s %14.6g %-14s %s\n" m.name m.value m.unit_ m.how)
    metrics;
  List.iter
    (fun c ->
      Printf.printf "  check %-26s %s  %s\n" c.c_name
        (if c.c_ok then "ok" else "FAILED")
        c.c_detail)
    checks

(* The report file: everything the human lines show, as JSON. *)
let write_file path ~args ~env ~attempted ~failed metrics checks =
  let json =
    Json.Obj
      [
        ("args", Json.Obj args);
        ( "machine",
          Json.Obj
            [
              ("nproc", Json.Int env.nproc);
              ("ocaml", Json.String env.ocaml);
              ("loadavg1_at_start", float_json env.load1);
              ("steal_s_during_run", float_json (steal_s () -. env.steal0));
            ] );
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) metrics));
        ( "checks",
          Json.List
            (List.map
               (fun c ->
                 Json.Obj
                   [
                     ("name", Json.String c.c_name);
                     ("ok", Json.Bool c.c_ok);
                     ("detail", Json.String c.c_detail);
                   ])
               checks) );
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* The result line: exactly [correct], [attempted], [failed], [metrics]. *)
let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Json.Obj [ ("value", float_json m.value); ("unit", Json.String m.unit_) ] ))
                metrics) );
       ])
