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

(* A step's time, with copies of the counts and context lent to it. *)
type obs =
  | Sample of float * int array * float array
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

let sample runner time =
  Sample (time, Array.copy (Runner.counts runner), Array.copy (Runner.context runner))

(* Runner [r]'s [i]-th step: the op mix rotates per runner, so at any
   ordinal the three readers ask the tape different questions. *)
let step_op case runner r i =
  match (i + r) mod 4 with
  | 0 -> sample runner (Runner.step runner case.base)
  | 1 -> sample runner (Runner.step ~context:case.sources runner case.other)
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

(* An independent oracle for what every reader must see at the first
   [steps] ordinals: the trace driven straight through the interpreter
   with no tape — init at each pass start, setup, context read, then an
   interpretation unless the trace declared the ordinal's class seen. *)
let direct_interpretation ~steps tsec (trace : Trace.t) sources =
  let env = Interp.make_env tsec.Tsection.ts in
  let seen = Hashtbl.create 16 in
  Array.init steps (fun k ->
      let pos = k mod trace.Trace.length in
      if pos = 0 then trace.Trace.init env;
      trace.Trace.setup pos env;
      let context = Array.of_list (List.map (Oracles.read_source env) sources) in
      let cls = Option.map (fun class_of -> class_of pos) trace.Trace.class_of in
      let counts =
        match Option.bind cls (Hashtbl.find_opt seen) with
        | Some counts -> counts
        | None ->
            let counts = (Interp.run tsec.Tsection.cfg env).Interp.block_counts in
            Option.iter (fun c -> Hashtbl.add seen c counts) cls;
            counts
      in
      (counts, context))

let check_step label k (want_counts, want_context) counts context =
  if counts <> want_counts then Alcotest.failf "%s: counts differ at ordinal %d" label k;
  if context <> [||] && compare context want_context <> 0 then
    Alcotest.failf "%s: context differs at ordinal %d" label k

let check_against_direct label direct (transcripts : transcript array) =
  Array.iteri
    (fun r t ->
      List.iteri
        (fun k -> function
          | Sample (_, counts, context) ->
              check_step (Printf.sprintf "%s runner %d" label r) k direct.(k) counts context
          | Pair _ | Batch _ -> ())
        t.steps)
    transcripts

let test_shared_equals_fresh () =
  List.iter
    (fun case ->
      let expected = fresh_transcripts case in
      check_against_direct case.label
        (direct_interpretation ~steps:steps_per_runner case.tsec (case.build ()) case.sources)
        expected;
      Array.iter
        (fun t -> Alcotest.(check bool) (case.label ^ ": crossed a pass wrap") true (t.passes >= 2))
        expected;
      check_same (case.label ^ " interleaved") expected (interleaved_transcripts case);
      check_same (case.label ^ " pooled") expected (pooled_transcripts case))
    (cases ())

(* The digest of the result.json a store-backed [Driver.tune] with
   defaults (auto method, IE) writes. *)
let result_json_digest b machine =
  Oracles.with_tmpdir @@ fun dir ->
  let meta = Driver.session_meta b machine Trace.Train in
  let session = Result.get_ok (Peak_store.Session.open_ ~dir ~meta ()) in
  Fun.protect
    ~finally:(fun () -> Peak_store.Session.close session)
    (fun () -> ignore (Driver.tune ~store:session b machine Trace.Train));
  let path =
    List.fold_left Filename.concat dir
      [ "sessions"; meta.Peak_store.Codec.m_id; "result.json" ]
  in
  Digest.to_hex (Digest.string (In_channel.with_open_bin path In_channel.input_all))

(* A shared tape must build its own trace: MCF's setup advances an RNG
   its trace captured, so reusing the trace the profile pass consumed
   changes every rating.  The pinned digest is of the result.json a
   driver building a fresh trace for every rating wrote. *)
let test_mcf_result_json_pinned () =
  Alcotest.(check string) "MCF pentium4 result.json digest" "0fe0667c264687102e8b1453d48d188b"
    (result_json_digest (bench "MCF") Machine.pentium4)

(* Every benchmark on both machines: a change to interpretation,
   rating or search that moves any byte of a session's result fails
   here.  MCF's pentium4 row is the pin above. *)
let result_json_digests =
  [
    ("BZIP2", "560b240a1afe05086c549919b4ecbec5", "de961214b4802e98f92d0e053a601ebd");
    ("CRAFTY", "09d52161f8876bf49a76ebeb2685aa56", "8cea003dfa3b894ab187f30fecec11d8");
    ("GZIP", "93abeed1f2ae30ef14fea0e592205794", "351e70b7595f15d44f3a61b98c0202b3");
    ("MCF", "0fe0667c264687102e8b1453d48d188b", "b9204af3f97466055865ada9f6733bdd");
    ("TWOLF", "e84a072aee8f59a0f951fdcecff2680f", "0328421030532179f48d1674077c3ada");
    ("VORTEX", "d281429a081558641eef42d2f46e6c99", "8b54fe74a075e03a71e58adee10ab3a7");
    ("APPLU", "8ef9d9e23d60bb0140e519fa8a7899b9", "4d77f51e6a1be639cf3ab0d63e11917a");
    ("APSI", "513a4ee6544cf35225829b318797ea36", "f00fc6cbc68855d56537b3c1d08d9c44");
    ("ART", "e7851b244a956f2229d263b8f8f7ca1a", "aa82cf15f5f4207f30c8fbeff9f641e0");
    ("MGRID", "3dd04d8dd1062499d6389c090322e9f3", "4425f6dc07bbb741415ebf7413d5a9e3");
    ("EQUAKE", "fab5454a7986847c9cb2b1a7b82da05a", "5423324aa620b28b077a3bb5373ab7aa");
    ("MESA", "07d01ee90b22b62e1ecc2052716e24c5", "41399c5fde4cde73824f09e3ea361876");
    ("SWIM", "9c05a2ad0ad51ee37e222be82d9f65c3", "3ea3bb619474175431e6cfd106dec4d9");
    ("WUPWISE", "287bc68f50f16b1c288aa5715f943e8a", "853f2e250a227ec66f4671fa5ab2e630");
  ]

let test_result_json_digests () =
  List.iter
    (fun (name, pentium4, sparc2) ->
      List.iter
        (fun (machine, expected) ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s result.json digest" name machine.Machine.name)
            expected
            (result_json_digest (bench name) machine))
        [ (Machine.pentium4, pentium4); (Machine.sparc2, sparc2) ])
    result_json_digests

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
  | (_ : float) -> None
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
      ignore (Runner.step ~context:[ flag ] runner version);
      Alcotest.(check (array (float 0.0))) "readable source" [| 0.0 |] (Runner.context runner);
      match Runner.step ~context:[ bad ] runner version with
      | (_ : float) -> Alcotest.fail "expected Out_of_bounds"
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

(* A step's counts and context are lent until the runner's next step.
   Copied at each of 600 steps of a private runner reading the
   section's parameters, they equal the direct interpretation's at
   every ordinal: on ART, which declares no classes, so the counts are
   the interpreter's scratch, overwritten by every step; and on MGRID,
   whose counts are class-cache entries — one lent out still reads the
   same 100 steps later. *)
let test_lent_views () =
  List.iter
    (fun name ->
      let b = bench name in
      let machine = Machine.sparc2 in
      let tsec = Tsection.make b.Benchmark.ts in
      let build () = b.Benchmark.trace Trace.Train ~seed:3 in
      let sources = List.map (fun p -> Expr.Scalar p) b.Benchmark.ts.Types.params in
      let o3 = Version.compile machine tsec.Tsection.features Optconfig.o3 in
      let runner = Runner.create ~seed:3 tsec (build ()) machine in
      let steps = 600 in
      let lent =
        Array.init steps (fun _ ->
            ignore (Runner.step ~context:sources runner o3);
            (Array.copy (Runner.counts runner), Array.copy (Runner.context runner)))
      in
      let direct = direct_interpretation ~steps tsec (build ()) sources in
      Array.iteri (fun k (counts, context) -> check_step name k direct.(k) counts context) lent;
      if name = "MGRID" then begin
        let held = Runner.counts runner in
        let snapshot = Array.copy held in
        for _ = 1 to 100 do
          ignore (Runner.step ~context:sources runner o3)
        done;
        Alcotest.(check (array int)) "class-cache entry unchanged" snapshot held
      end)
    [ "ART"; "MGRID" ]

let suites =
  [
    ( "core.tape",
      [
        Alcotest.test_case "shared tape equals fresh traces" `Quick test_shared_equals_fresh;
        Alcotest.test_case "MCF result.json pinned" `Quick test_mcf_result_json_pinned;
        Alcotest.test_case "every benchmark's result.json pinned" `Quick
          test_result_json_digests;
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
        Alcotest.test_case "lent counts and contexts match each ordinal" `Quick
          test_lent_views;
      ] );
  ]
