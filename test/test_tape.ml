(* The invocation tape: runners sharing one tape must see exactly what
   runners owning a fresh trace each see, one interpretation per
   ordinal must serve a whole tuning session, and a failure while the
   tape extends must reach every reader of that ordinal. *)

open Peak_ir
open Peak_machine
open Peak_compiler
open Peak_workload
open Peak

let bench = Oracles.bench

(* ------------------------------------------------------------------ *)
(* Differential: shared tape vs fresh traces                           *)
(* ------------------------------------------------------------------ *)

(* Each trace keeps its own generator but has its pass cut short, so a
   few hundred steps cross several pass wraps (where [init] reruns). *)
let short_pass = 40
let steps_per_runner = 100

let shortened (tr : Trace.t) =
  Trace.make ~name:tr.Trace.name ~length:(min short_pass tr.Trace.length) ~init:tr.Trace.init
    ?class_of:tr.Trace.class_of ~mutated_arrays:tr.Trace.mutated_arrays tr.Trace.setup

type obs =
  | Sample of int * float * int array * float array
  | Pair of float * float
  | Batch of float * float list

(* What one runner observed: every step's outcome, then its ledger. *)
type transcript = { steps : obs list; cycles : float; consumed : int; passes : int }

type case = {
  label : string;
  tsec : Tsection.t;
  machine : Machine.t;
  build : unit -> Trace.t;
  sources : Expr.source list;  (** the profile's CBR sources *)
  base : Version.t;
  other : Version.t;
}

let seeds = [| 101; 202; 303 |]

(* Runner [r]'s [i]-th step: the op mix rotates per runner, so at any
   ordinal the three readers ask the tape different questions. *)
let step_op case runner r i =
  match (i + r) mod 4 with
  | 0 ->
      let s = Runner.step runner case.base in
      Sample (s.Runner.index, s.Runner.time, s.Runner.counts, s.Runner.context)
  | 1 ->
      let s = Runner.step ~context:case.sources runner case.other in
      Sample (s.Runner.index, s.Runner.time, s.Runner.counts, s.Runner.context)
  | 2 ->
      let b, e = Runner.step_pair runner ~base:case.base ~experimental:case.other in
      Pair (b, e)
  | _ ->
      let b, es =
        Runner.step_batch runner ~base:case.base ~experimentals:[ case.other; case.base ]
      in
      Batch (b, es)

let transcript runner steps =
  {
    steps = List.rev steps;
    cycles = Runner.tuning_cycles runner;
    consumed = Runner.invocations_consumed runner;
    passes = Runner.passes_started runner;
  }

(* Every runner on a trace of its own: the pre-tape rating scheme. *)
let fresh_transcripts case =
  Array.mapi
    (fun r seed ->
      let runner = Runner.create ~seed case.tsec (case.build ()) case.machine in
      let steps = List.init steps_per_runner (fun i -> step_op case runner r i) in
      transcript runner (List.rev steps))
    seeds

let shared_tape case =
  let probe = case.build () in
  Tape.shared case.tsec ~name:probe.Trace.name ~length:probe.Trace.length case.build

(* Three runners on one shared tape, interleaved unevenly: in each round
   runner r takes r+1 steps, so the lead — the reader that extends the
   tape — changes hands as the faster runners finish. *)
let interleaved_transcripts case =
  let tape = shared_tape case in
  let runners = Array.map (fun seed -> Runner.of_tape ~seed tape case.machine) seeds in
  let taken = Array.make 3 0 in
  let acc = Array.make 3 [] in
  while Array.exists (fun n -> n < steps_per_runner) taken do
    Array.iteri
      (fun r runner ->
        for _ = 0 to r do
          if taken.(r) < steps_per_runner then begin
            acc.(r) <- step_op case runner r taken.(r) :: acc.(r);
            taken.(r) <- taken.(r) + 1
          end
        done)
      runners
  done;
  Array.mapi (fun r runner -> transcript runner acc.(r)) runners

(* The same three jobs on a two-domain pool, racing for extensions. *)
let pooled_transcripts case =
  let tape = shared_tape case in
  Peak_util.Pool.run ~domains:2 (fun pool ->
      Peak_util.Pool.map pool
        (fun r ->
          let runner = Runner.of_tape ~seed:seeds.(r) tape case.machine in
          let steps = List.init steps_per_runner (fun i -> step_op case runner r i) in
          transcript runner (List.rev steps))
        [ 0; 1; 2 ])
  |> Array.of_list

(* Bit-exact: [compare] orders floats totally, so 0 means identical
   (nan included). *)
let check_same label (expected : transcript array) (actual : transcript array) =
  Array.iteri
    (fun r e ->
      let a = actual.(r) in
      let what = Printf.sprintf "%s runner %d" label r in
      Alcotest.(check int) (what ^ ": invocations") e.consumed a.consumed;
      Alcotest.(check int) (what ^ ": passes") e.passes a.passes;
      if compare e.steps a.steps <> 0 then Alcotest.failf "%s: samples differ" what;
      if compare e.cycles a.cycles <> 0 then
        Alcotest.failf "%s: tuning_cycles %.17g vs %.17g" what e.cycles a.cycles)
    expected

let case_of ?(label = "") (b : Benchmark.t) machine build =
  let tsec = Tsection.make b.Benchmark.ts in
  let profile = Profile.run ~seed:5 tsec (build ()) machine in
  let sources =
    match profile.Profile.context with Profile.Cbr_ok { sources; _ } -> sources | _ -> []
  in
  let compile c = Version.compile machine tsec.Tsection.features c in
  {
    label = (if label = "" then b.Benchmark.name else label);
    tsec;
    machine;
    build;
    sources;
    base = compile Optconfig.o3;
    other = compile (Optconfig.o_level 1);
  }

let cases () =
  let registry =
    List.mapi
      (fun i (b : Benchmark.t) ->
        let machine = if i mod 2 = 0 then Machine.pentium4 else Machine.sparc2 in
        case_of b machine (fun () -> shortened (b.Benchmark.trace Trace.Train ~seed:9)))
      Registry.all
  in
  (* Drift.apply's init latches the warped scalar into a ref: a trace
     that is a generator in the strict sense *)
  let art = bench "ART" in
  let spec = Result.get_ok (Drift.of_string "seed=4,step=25,warp=off*0,warp=numf1s*4") in
  let drifted =
    case_of ~label:"ART+drift" art Machine.pentium4 (fun () ->
        Drift.apply ~length:short_pass spec (art.Benchmark.trace Trace.Train ~seed:9))
  in
  registry @ [ drifted ]

(* An independent oracle for what every reader must see at ordinal k:
   the trace driven straight through the interpreter with no tape —
   init at each pass start, setup, context read, then an interpretation
   unless the trace declared the ordinal's class seen. *)
let direct_interpretation case =
  let trace = case.build () in
  let env = Interp.make_env case.tsec.Tsection.ts in
  let seen = Hashtbl.create 16 in
  Array.init steps_per_runner (fun k ->
      let pos = k mod trace.Trace.length in
      if pos = 0 then trace.Trace.init env;
      trace.Trace.setup pos env;
      let context = Array.of_list (List.map (Interp.read_source env) case.sources) in
      let cls = Option.map (fun class_of -> class_of pos) trace.Trace.class_of in
      let counts =
        match Option.bind cls (Hashtbl.find_opt seen) with
        | Some counts -> counts
        | None ->
            let counts = (Interp.run case.tsec.Tsection.cfg env).Interp.block_counts in
            Option.iter (fun c -> Hashtbl.add seen c counts) cls;
            counts
      in
      (counts, context))

let check_against_direct label direct (transcripts : transcript array) =
  Array.iteri
    (fun r t ->
      List.iteri
        (fun k -> function
          | Sample (index, _, counts, context) ->
              let want_counts, want_context = direct.(k) in
              Alcotest.(check int) (Printf.sprintf "%s runner %d: index" label r)
                (k mod short_pass) index;
              if counts <> want_counts then
                Alcotest.failf "%s runner %d: counts differ at ordinal %d" label r k;
              if context <> [||] && compare context want_context <> 0 then
                Alcotest.failf "%s runner %d: context differs at ordinal %d" label r k
          | Pair _ | Batch _ -> ())
        t.steps)
    transcripts

let test_shared_equals_fresh () =
  List.iter
    (fun case ->
      let expected = fresh_transcripts case in
      check_against_direct case.label (direct_interpretation case) expected;
      Array.iter
        (fun t -> Alcotest.(check bool) (case.label ^ ": crossed a pass wrap") true (t.passes >= 2))
        expected;
      check_same (case.label ^ " interleaved") expected (interleaved_transcripts case);
      check_same (case.label ^ " pooled") expected (pooled_transcripts case))
    (cases ())

(* A shared tape must build its own trace: MCF's setup advances an RNG
   its trace captured, so reusing the trace the profile pass consumed
   changes every rating.  The pinned digest is of the result.json a
   driver building a fresh trace for every rating wrote. *)
let test_mcf_result_json_pinned () =
  Oracles.with_tmpdir @@ fun dir ->
  let b = bench "MCF" in
  let machine = Machine.pentium4 in
  let meta = Driver.session_meta b machine Trace.Train in
  let session = Result.get_ok (Peak_store.Session.open_ ~dir ~meta ()) in
  Fun.protect
    ~finally:(fun () -> Peak_store.Session.close session)
    (fun () -> ignore (Driver.tune ~store:session b machine Trace.Train));
  let path =
    List.fold_left Filename.concat dir
      [ "sessions"; meta.Peak_store.Codec.m_id; "result.json" ]
  in
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "MCF pentium4 result.json digest" "0fe0667c264687102e8b1453d48d188b"
    (Digest.to_hex (Digest.string bytes))

(* ------------------------------------------------------------------ *)
(* One interpretation per session                                      *)
(* ------------------------------------------------------------------ *)

(* ART declares no invocation classes, so a runner on a trace of its own
   interprets every invocation it consumes.  On the session tape the
   interpreter runs once per ordinal: as many times as the furthest
   rating reached, however many ratings read it.  The furthest reach is
   read independently from the journal — each rating's consumption. *)
let test_art_rbr_interprets_once () =
  Oracles.with_tmpdir @@ fun dir ->
  let b = bench "ART" in
  let machine = Machine.pentium4 in
  let meta = Driver.session_meta ~method_:Method.Rbr b machine Trace.Train in
  let session = Result.get_ok (Peak_store.Session.open_ ~dir ~meta ()) in
  Peak_obs.install ();
  let snapshot =
    Fun.protect
      ~finally:(fun () ->
        Peak_obs.uninstall ();
        Peak_store.Session.close session)
      (fun () ->
        let r = Driver.tune ~method_:Method.Rbr ~store:session b machine Trace.Train in
        Alcotest.(check int) "session invocations" 10_320 r.Driver.invocations;
        Option.get (Peak_obs.snapshot ()))
  in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name snapshot.Peak_obs.counters)
  in
  Alcotest.(check int) "method.invocations" 10_320 (counter "method.invocations.RBR");
  let events, _ = Peak_store.Session.events ~dir ~id:meta.Peak_store.Codec.m_id in
  let furthest =
    List.fold_left
      (fun acc (e : Peak_store.Codec.event) ->
        max acc e.Peak_store.Codec.e_used.Peak_store.Codec.c_invocations)
      0 events
  in
  Alcotest.(check bool) "ratings were journaled" true (furthest > 0);
  Alcotest.(check int) "tape reached the furthest rating" furthest (counter "tape.recorded");
  Alcotest.(check int) "each ordinal interpreted once" furthest (counter "tape.interpreted")

(* ------------------------------------------------------------------ *)
(* Extension failures                                                  *)
(* ------------------------------------------------------------------ *)

(* A section computing t = a[k] + 1 for the k its trace sets per
   invocation; the array holds [size] cells, so ordinal [size] reads out
   of bounds. *)
let size = 6

let probe_ts =
  Types.
    {
      name = "oob_probe";
      params = [ "k" ];
      arrays = [ ("a", size) ];
      pointers = [];
      locals = [ "t" ];
      body =
        [
          Assign ("t", Binop (Add, Index ("a", Var "k"), Const 1.0));
          If (Cmp (Gt, Var "t", Const 100.0), [ Assign ("t", Const 0.0) ], []);
        ];
    }

let probe_tsec = Tsection.make probe_ts

(* [setup_fails]: the trace's own setup indexes out of bounds at
   ordinal [size]; otherwise the interpreter does. *)
let probe_trace ~setup_fails () =
  Trace.make ~name:"oob_probe" ~length:100 (fun i env ->
      if setup_fails then (Interp.get_array env "a").(i) <- 1.0;
      Interp.set_scalar env "k" (float_of_int i))

let probe_version =
  Version.compile Machine.pentium4 probe_tsec.Tsection.features Optconfig.o3

let failing_step runner =
  match Runner.step runner probe_version with
  | (_ : Runner.sample) -> None
  | exception e -> Some e

let test_extension_failure ~setup_fails () =
  let tape =
    Tape.shared probe_tsec ~name:"oob_probe" ~length:100 (probe_trace ~setup_fails)
  in
  let a = Runner.of_tape ~seed:1 tape Machine.pentium4 in
  let b = Runner.of_tape ~seed:2 tape Machine.pentium4 in
  for _ = 1 to size do
    Alcotest.(check bool) "a: ordinals before the fault" true (failing_step a = None)
  done;
  let ea = failing_step a in
  Alcotest.(check bool) "a: the fault surfaces" true (Option.is_some ea);
  Alcotest.(check int) "no half-written record" size (Tape.recorded tape);
  (* the lock was released: b reads every published ordinal, then meets
     the very same failure, as a runner with its own trace would *)
  for _ = 1 to size do
    Alcotest.(check bool) "b: ordinals before the fault" true (failing_step b = None)
  done;
  let eb = failing_step b in
  Alcotest.(check bool) "b: the same exception" true (ea = eb);
  let fresh = Runner.create ~seed:3 probe_tsec (probe_trace ~setup_fails ()) Machine.pentium4 in
  for _ = 1 to size do
    ignore (failing_step fresh)
  done;
  Alcotest.(check bool) "as a fresh trace raises" true (failing_step fresh = ea);
  (* a retry keeps failing rather than extending past the fault *)
  Alcotest.(check bool) "a: still failing" true (failing_step a = ea);
  Alcotest.(check int) "still no record" size (Tape.recorded tape)

(* A candidate context source whose read raises — a guard on a[10] of a
   5-cell array, behind a flag that is never set, so the section itself
   never reads it — fails only the readers that ask for it, as reading
   it from a private environment would. *)
let test_context_read_failure () =
  let ts =
    Types.
      {
        name = "guarded_probe";
        params = [ "flag" ];
        arrays = [ ("a", 5) ];
        pointers = [];
        locals = [ "t" ];
        body =
          [
            If
              ( Cmp (Gt, Var "flag", Const 0.0),
                [ If (Cmp (Gt, Index ("a", Const 10.0), Const 0.0), [ Assign ("t", Const 1.0) ], []) ],
                [] );
          ];
      }
  in
  let tsec = Tsection.make ts in
  let trace () = Trace.make ~name:"guarded_probe" ~length:10 (fun _ _ -> ()) in
  let bad = Expr.Array_elem ("a", Some 10) and flag = Expr.Scalar "flag" in
  let version = Version.compile Machine.pentium4 tsec.Tsection.features Optconfig.o3 in
  let tape = Tape.shared tsec ~name:"guarded_probe" ~length:10 trace in
  let on_tape = Runner.of_tape ~seed:1 tape Machine.pentium4 in
  let own = Runner.create ~seed:1 tsec (trace ()) Machine.pentium4 in
  List.iter
    (fun runner ->
      ignore (Runner.step runner version);
      let s = Runner.step ~context:[ flag ] runner version in
      Alcotest.(check (array (float 0.0))) "readable source" [| 0.0 |] s.Runner.context;
      match Runner.step ~context:[ bad ] runner version with
      | (_ : Runner.sample) -> Alcotest.fail "expected Out_of_bounds"
      | exception Interp.Out_of_bounds _ -> ())
    [ on_tape; own ];
  Alcotest.(check int) "every ordinal recorded" 3 (Tape.recorded tape)

let test_extension_failure_pooled () =
  let tape =
    Tape.shared probe_tsec ~name:"oob_probe" ~length:100 (probe_trace ~setup_fails:false)
  in
  let outcomes =
    Peak_util.Pool.run ~domains:2 (fun pool ->
        Peak_util.Pool.map pool
          (fun seed ->
            let runner = Runner.of_tape ~seed tape Machine.pentium4 in
            let rec go n = match failing_step runner with None -> go (n + 1) | Some e -> (n, e) in
            go 0)
          [ 1; 2; 3; 4 ])
  in
  List.iter
    (fun (n, e) ->
      Alcotest.(check int) "fails at the faulty ordinal" size n;
      Alcotest.(check bool) "with Out_of_bounds" true
        (match e with Interp.Out_of_bounds _ -> true | _ -> false))
    outcomes

let suites =
  [
    ( "core.tape",
      [
        Alcotest.test_case "shared tape equals fresh traces" `Quick test_shared_equals_fresh;
        Alcotest.test_case "MCF result.json pinned" `Quick test_mcf_result_json_pinned;
        Alcotest.test_case "ART RBR interprets each ordinal once" `Quick
          test_art_rbr_interprets_once;
        Alcotest.test_case "setup failure reaches every reader" `Quick
          (test_extension_failure ~setup_fails:true);
        Alcotest.test_case "interpreter failure reaches every reader" `Quick
          (test_extension_failure ~setup_fails:false);
        Alcotest.test_case "extension failure across domains" `Quick
          test_extension_failure_pooled;
        Alcotest.test_case "a failing context read fails its reader only" `Quick
          test_context_read_failure;
      ] );
  ]
