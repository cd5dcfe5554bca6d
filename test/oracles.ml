(* Shared differential-oracle fixtures.

   The determinism suites (test_parallel, test_store, test_faults) all
   assert the same property — two tuning runs that should be
   bit-identical are — and all need the same scaffolding: temp store
   directories, simulated crash artifacts, and a single definition of
   "identical result".  Keeping that definition here means a new field
   in [Driver.result] is compared by every suite at once instead of by
   whichever copies were updated. *)

open Peak_compiler
open Peak_workload
open Peak

let bench name = Option.get (Registry.by_name name)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_tmpdir f =
  let dir = Filename.temp_file "peak-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Bit-exact float comparison (any nan equals any nan: the store codec
   canonicalizes the payload through the "nan" string encoding). *)
let same_float a b =
  (Float.is_nan a && Float.is_nan b) || Int64.bits_of_float a = Int64.bits_of_float b

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The differential oracle: every observable outcome of a tuning run —
   winner, search statistics, quarantine record, and the full simulated
   ledger — must match bit for bit. *)
let check_identical tag (a : Driver.result) (b : Driver.result) =
  Alcotest.(check bool)
    (tag ^ ": best_config identical")
    true
    (Optconfig.equal a.Driver.best_config b.Driver.best_config);
  Alcotest.(check int)
    (tag ^ ": ratings identical")
    a.Driver.search_stats.Search.ratings b.Driver.search_stats.Search.ratings;
  Alcotest.(check bool)
    (tag ^ ": search stats identical")
    true
    (a.Driver.search_stats = b.Driver.search_stats);
  Alcotest.(check string)
    (tag ^ ": strategy identical")
    (Strategy.key a.Driver.strategy)
    (Strategy.key b.Driver.strategy);
  Alcotest.(check bool)
    (tag ^ ": stage records identical")
    true
    (a.Driver.stages = b.Driver.stages);
  Alcotest.(check (float 0.0))
    (tag ^ ": tuning_cycles bit-identical")
    a.Driver.tuning_cycles b.Driver.tuning_cycles;
  Alcotest.(check int) (tag ^ ": invocations identical") a.Driver.invocations b.Driver.invocations;
  Alcotest.(check int) (tag ^ ": passes identical") a.Driver.passes b.Driver.passes;
  Alcotest.(check int)
    (tag ^ ": quarantine count identical")
    (List.length a.Driver.quarantined)
    (List.length b.Driver.quarantined);
  List.iter2
    (fun (c1, r1) (c2, r2) ->
      Alcotest.(check bool)
        (tag ^ ": quarantine entry identical")
        true
        (Optconfig.equal c1 c2 && String.equal r1 r2))
    a.Driver.quarantined b.Driver.quarantined;
  Alcotest.(check int)
    (tag ^ ": fault retries identical")
    a.Driver.fault_retries b.Driver.fault_retries;
  (* the metrics block is part of result.json, so it is held to the same
     bit-identity bar as the ledger itself *)
  Alcotest.(check bool)
    (tag ^ ": per-method metrics identical")
    true
    (a.Driver.metrics.Peak_store.Codec.x_methods = b.Driver.metrics.Peak_store.Codec.x_methods);
  Alcotest.(check int)
    (tag ^ ": metrics quarantine count identical")
    a.Driver.metrics.Peak_store.Codec.x_quarantined b.Driver.metrics.Peak_store.Codec.x_quarantined;
  Alcotest.(check int)
    (tag ^ ": metrics retries identical")
    a.Driver.metrics.Peak_store.Codec.x_retries b.Driver.metrics.Peak_store.Codec.x_retries;
  Alcotest.(check int)
    (tag ^ ": metrics invocations identical")
    a.Driver.metrics.Peak_store.Codec.x_invocations b.Driver.metrics.Peak_store.Codec.x_invocations;
  Alcotest.(check (float 0.0))
    (tag ^ ": metrics cycles bit-identical")
    a.Driver.metrics.Peak_store.Codec.x_cycles b.Driver.metrics.Peak_store.Codec.x_cycles

(* The adaptive engine's form of the oracle: two drift runs that should
   be bit-identical are, across every stats field — the cycle ledgers,
   the per-phase split, the staleness record, and the per-context
   choices. *)
let check_identical_adaptive tag (a : Adaptive.stats) (b : Adaptive.stats) =
  let check_f name x y =
    Alcotest.(check bool) (tag ^ ": " ^ name ^ " bit-identical") true (same_float x y)
  in
  Alcotest.(check int) (tag ^ ": invocations identical") a.Adaptive.invocations b.Adaptive.invocations;
  check_f "total_cycles" a.Adaptive.total_cycles b.Adaptive.total_cycles;
  check_f "o3_cycles" a.Adaptive.o3_cycles b.Adaptive.o3_cycles;
  check_f "oracle_cycles" a.Adaptive.oracle_cycles b.Adaptive.oracle_cycles;
  Alcotest.(check int) (tag ^ ": swaps identical") a.Adaptive.swaps b.Adaptive.swaps;
  Alcotest.(check int)
    (tag ^ ": contexts identical")
    a.Adaptive.contexts_seen b.Adaptive.contexts_seen;
  Alcotest.(check int)
    (tag ^ ": stale detections identical")
    a.Adaptive.stale_detections b.Adaptive.stale_detections;
  Alcotest.(check (list int))
    (tag ^ ": stale invocations identical")
    a.Adaptive.stale_invocations b.Adaptive.stale_invocations;
  Alcotest.(check int) (tag ^ ": readapts identical") a.Adaptive.readapts b.Adaptive.readapts;
  check_f "mean_time_to_readapt" a.Adaptive.mean_time_to_readapt b.Adaptive.mean_time_to_readapt;
  Alcotest.(check int)
    (tag ^ ": readapt invocations identical")
    a.Adaptive.readapt_invocations b.Adaptive.readapt_invocations;
  check_f "fresh_cycles" a.Adaptive.fresh_cycles b.Adaptive.fresh_cycles;
  check_f "suspect_cycles" a.Adaptive.suspect_cycles b.Adaptive.suspect_cycles;
  check_f "retuning_cycles" a.Adaptive.retuning_cycles b.Adaptive.retuning_cycles;
  check_f "p99_invocation_cycles" a.Adaptive.p99_invocation_cycles b.Adaptive.p99_invocation_cycles;
  Alcotest.(check int)
    (tag ^ ": choice count identical")
    (List.length a.Adaptive.choices)
    (List.length b.Adaptive.choices);
  List.iter2
    (fun (k1, c1) (k2, c2) ->
      Alcotest.(check bool)
        (tag ^ ": choice key identical")
        true
        (Array.length k1 = Array.length k2 && Array.for_all2 same_float k1 k2);
      Alcotest.(check bool) (tag ^ ": choice config identical") true (Optconfig.equal c1 c2))
    a.Adaptive.choices b.Adaptive.choices

(* The wire-level form of the same oracle: two stored session results
   must serialize to the same bytes.  This is what the tuning service's
   clients can actually observe, and byte equality of the codec output
   subsumes field-by-field equality. *)
let check_identical_summary tag (a : Peak_store.Codec.session_result)
    (b : Peak_store.Codec.session_result) =
  let open Peak_store in
  Alcotest.(check string)
    (tag ^ ": session_result bytes identical")
    (Json.to_string (Codec.session_result_to_json a))
    (Json.to_string (Codec.session_result_to_json b))

(* Crash simulation: given a completed session's store, build a copy
   whose journal ends after [keep] whole events plus a torn half-line —
   exactly what a SIGKILL between fsync batches leaves behind.  Returns
   the source journal's total line count. *)
let crashed_copy ~src_dir ~dst_dir ~id ~keep =
  let src = Filename.concat (Filename.concat src_dir "sessions") id in
  let dst = Filename.concat (Filename.concat dst_dir "sessions") id in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p dst;
  let copy name =
    let ic = open_in (Filename.concat src name) in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    let oc = open_out (Filename.concat dst name) in
    output_string oc contents;
    close_out oc
  in
  copy "meta.json";
  let lines = ref [] in
  let ic = open_in (Filename.concat src "journal.jsonl") in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check bool) "enough journal lines to truncate" true (List.length lines > keep);
  let oc = open_out (Filename.concat dst "journal.jsonl") in
  List.iteri (fun i l -> if i < keep then output_string oc (l ^ "\n")) lines;
  (* the torn tail: a prefix of the first dropped line, no newline *)
  let tail = List.nth lines keep in
  output_string oc (String.sub tail 0 (String.length tail / 2));
  close_out oc;
  List.length lines

(* The per-invocation evaluation pass that [Driver.pass_summary]
   replaced: a noise-free runner times every invocation of one pass
   under the version, and the times are summed in invocation order.
   The summary's [C·c(v) + M] must agree with it up to float
   reassociation. *)
let ts_pass_cycles ?(seed = 5) (benchmark : Benchmark.t) machine config dataset =
  let machine =
    { machine with Peak_machine.Machine.noise_sigma = 0.0; spike_probability = 0.0 }
  in
  let tsec = Tsection.make benchmark.Benchmark.ts in
  let trace = benchmark.Benchmark.trace dataset ~seed in
  let runner = Runner.create ~seed ~context_switch_rate:0.0 tsec trace machine in
  Runner.run_full_pass runner (Version.compile machine tsec.Tsection.features config)
