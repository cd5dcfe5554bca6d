(* The persistent tuning store: JSON codec round-trips, journal crash
   tolerance, stable configuration digests, resume-equals-uninterrupted
   determinism across domain counts, and cross-run warm starts. *)

open Peak_util
open Peak_machine
open Peak_compiler
open Peak_workload
open Peak_store
open Peak

(* Shared fixtures — temp dirs, crash artifacts, the bit-identity
   oracle — live in [Oracles]. *)
let bench = Oracles.bench
let with_tmpdir = Oracles.with_tmpdir
let same_float = Oracles.same_float
let check_identical = Oracles.check_identical
let crashed_copy = Oracles.crashed_copy

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (10, float);
        ( 3,
          oneofl
            [
              0.; -0.; 1.; -1.; Float.max_float; Float.min_float; Float.epsilon;
              4.9e-324; 1e17; -123456.; 0.1; Float.nan; Float.infinity;
              Float.neg_infinity;
            ] );
      ])

let arb_float = QCheck.make ~print:(Printf.sprintf "%h") gen_float

(* v4 records refuse non-finite floats at decode time, so generators for
   record fields map the special values onto an extreme-but-finite
   double; the sentinel cases (infinite quarantine evals) are exercised
   explicitly below. *)
let gen_finite =
  QCheck.Gen.map (fun f -> if Float.is_finite f then f else 0x1.fp1023) gen_float

let gen_optconfig =
  QCheck.Gen.(
    list_size (int_bound 38) (int_bound (Array.length Flags.all - 1)) >|= fun idxs ->
    List.fold_left (fun c i -> Optconfig.enable c Flags.all.(i)) Optconfig.o0 idxs)

let arb_optconfig = QCheck.make ~print:Optconfig.to_string gen_optconfig

let gen_name =
  QCheck.Gen.(
    frequency
      [
        (5, string_size ~gen:printable (int_bound 16));
        (1, oneofl [ ""; "a\"b"; "back\\slash"; "tab\tnl\n"; "caf\xc3\xa9" ]);
      ])

let gen_consumption =
  QCheck.Gen.(
    map3
      (fun i p c -> { Codec.c_invocations = i; c_passes = p; c_cycles = c })
      small_nat small_nat gen_finite)

let gen_event =
  QCheck.Gen.(
    map
      (fun (m, ctx, base, idx, config, ((eval, converged), (fail, retries)), used) ->
        (* keep the generated event v4-valid: a non-finite eval becomes
           the +inf sentinel, which must carry a failure reason *)
        let eval, fail =
          if Float.is_finite eval then (eval, fail)
          else (Float.infinity, Some (Option.value fail ~default:"crashed"))
        in
        {
          Codec.e_method = m;
          e_ctx = ctx;
          e_base = base;
          e_idx = idx;
          e_config = config;
          e_eval = eval;
          e_converged = converged;
          e_used = used;
          e_fail = fail;
          e_retries = retries;
        })
      (tup7
         (oneofl [ "CBR"; "MBR"; "RBR"; "AVG"; "WHL" ])
         gen_name gen_name (int_range (-1) 100) gen_optconfig
         (pair (pair gen_float bool)
            (pair
               (oneofl [ None; Some "crashed"; Some "hung"; Some "wrong-output" ])
               small_nat))
         gen_consumption))

let arb_event =
  QCheck.make
    ~print:(fun e -> Json.to_string (Codec.event_to_json e))
    gen_event

let gen_trajectory =
  QCheck.Gen.(list_size (int_bound 6) (pair gen_optconfig gen_finite))

let arb_trajectory =
  QCheck.make ~print:(fun t -> Json.to_string (Codec.trajectory_to_json t)) gen_trajectory

let gen_session_meta =
  QCheck.Gen.(
    map
      (fun (id, (b, m), (d, s), seed, threshold, params, method_, (start, faults)) ->
        {
          Codec.m_id = id;
          m_benchmark = b;
          m_machine = m;
          m_dataset = d;
          m_search = s;
          m_seed = seed;
          m_threshold = threshold;
          m_params = params;
          m_method = method_;
          m_start = start;
          m_faults = faults;
        })
      (tup8 gen_name (pair gen_name gen_name) (pair gen_name gen_name) small_nat
         gen_finite gen_name
         (oneofl [ "auto"; "cbr"; "mbr"; "rbr"; "avg"; "whl" ])
         (pair gen_optconfig (oneofl [ "-"; "seed=3,crash=0.05"; "seed=7,wrong=0.02" ]))))

let arb_session_meta =
  QCheck.make
    ~print:(fun m -> Json.to_string (Codec.session_meta_to_json m))
    gen_session_meta

let gen_attempt =
  QCheck.Gen.(
    map3
      (fun m converged ratings ->
        { Codec.at_method = m; at_converged = converged; at_ratings = ratings })
      (oneofl [ "CBR"; "MBR"; "RBR"; "AVG"; "WHL" ])
      bool small_nat)

let gen_quarantined =
  QCheck.Gen.(
    list_size (int_bound 3)
      (pair gen_optconfig (oneofl [ "crashed"; "hung"; "wrong-output" ])))

let gen_method_metrics =
  QCheck.Gen.(
    map3
      (fun m r i -> { Codec.mm_method = m; mm_ratings = r; mm_invocations = i })
      (oneofl [ "CBR"; "MBR"; "RBR"; "AVG"; "WHL" ])
      small_nat small_nat)

let gen_metrics =
  QCheck.Gen.(
    map
      (fun (methods, q, retries, inv, cycles) ->
        {
          Codec.x_methods = methods;
          x_quarantined = q;
          x_retries = retries;
          x_invocations = inv;
          x_cycles = cycles;
        })
      (tup5 (list_size (int_bound 4) gen_method_metrics) small_nat small_nat small_nat
         gen_finite))

let gen_stage =
  QCheck.Gen.(
    map3
      (fun l r f -> { Codec.st_label = l; st_ratings = r; st_flags = f })
      (oneofl [ "screen"; "refine"; "eliminate"; "sample" ])
      small_nat small_nat)

let gen_session_result =
  QCheck.Gen.(
    map
      (fun
        ( ((m, strategy), (attempts, stages)),
          best,
          (ratings, iterations),
          trajectory,
          cycles,
          seconds,
          ((passes, inv), ((quarantined, retries), metrics)) )
      ->
        {
          Codec.r_method = m;
          r_strategy = strategy;
          r_stages = stages;
          r_attempts = attempts;
          r_best = best;
          r_ratings = ratings;
          r_iterations = iterations;
          r_trajectory = trajectory;
          r_tuning_cycles = cycles;
          r_tuning_seconds = seconds;
          r_passes = passes;
          r_invocations = inv;
          r_quarantined = quarantined;
          r_retries = retries;
          r_metrics = metrics;
        })
      (tup7
         (pair
            (pair
               (oneofl [ "CBR"; "MBR"; "RBR"; "AVG"; "WHL" ])
               (oneofl [ "ie"; "be"; "ce"; "random100"; "ff"; "ose"; "staged" ]))
            (pair (list_size (int_bound 4) gen_attempt) (list_size (int_bound 3) gen_stage)))
         gen_optconfig (pair small_nat small_nat) gen_trajectory gen_finite
         gen_finite
         (pair (pair small_nat small_nat)
            (pair (pair gen_quarantined small_nat) (option gen_metrics)))))

let arb_session_result =
  QCheck.make
    ~print:(fun r -> Json.to_string (Codec.session_result_to_json r))
    gen_session_result

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

(* Every round-trip goes through the printed text, not just the Json
   tree — the journal stores lines, so text is the format of record. *)
let reencode j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j'
  | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e

let ok = function
  | Ok v -> v
  | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e

let same_trajectory a b =
  List.length a = List.length b
  && List.for_all2
       (fun (c1, g1) (c2, g2) -> Optconfig.equal c1 c2 && same_float g1 g2)
       a b

let same_consumption (a : Codec.consumption) (b : Codec.consumption) =
  a.Codec.c_invocations = b.Codec.c_invocations
  && a.Codec.c_passes = b.Codec.c_passes
  && same_float a.Codec.c_cycles b.Codec.c_cycles

let same_metrics a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Codec.metrics), Some (b : Codec.metrics) ->
      a.Codec.x_methods = b.Codec.x_methods
      && a.Codec.x_quarantined = b.Codec.x_quarantined
      && a.Codec.x_retries = b.Codec.x_retries
      && a.Codec.x_invocations = b.Codec.x_invocations
      && same_float a.Codec.x_cycles b.Codec.x_cycles
  | _ -> false

let roundtrip_tests =
  let t name arb encode decode equal =
    QCheck.Test.make ~count:200 ~name arb (fun v ->
        equal v (ok (decode (reencode (encode v)))))
  in
  [
    t "float round-trips bit-exactly" arb_float Codec.float_to_json Codec.float_of_json
      same_float;
    t "optconfig round-trips" arb_optconfig Codec.optconfig_to_json Codec.optconfig_of_json
      Optconfig.equal;
    t "trajectory round-trips" arb_trajectory Codec.trajectory_to_json
      Codec.trajectory_of_json same_trajectory;
    t "event round-trips" arb_event Codec.event_to_json Codec.event_of_json
      (fun (a : Codec.event) (b : Codec.event) ->
        a.Codec.e_method = b.Codec.e_method
        && a.Codec.e_ctx = b.Codec.e_ctx
        && a.Codec.e_base = b.Codec.e_base
        && a.Codec.e_idx = b.Codec.e_idx
        && Optconfig.equal a.Codec.e_config b.Codec.e_config
        && same_float a.Codec.e_eval b.Codec.e_eval
        && a.Codec.e_converged = b.Codec.e_converged
        && same_consumption a.Codec.e_used b.Codec.e_used
        && a.Codec.e_fail = b.Codec.e_fail
        && a.Codec.e_retries = b.Codec.e_retries);
    t "session_meta round-trips" arb_session_meta Codec.session_meta_to_json
      Codec.session_meta_of_json
      (fun (a : Codec.session_meta) (b : Codec.session_meta) ->
        a.Codec.m_id = b.Codec.m_id
        && a.Codec.m_benchmark = b.Codec.m_benchmark
        && a.Codec.m_machine = b.Codec.m_machine
        && a.Codec.m_dataset = b.Codec.m_dataset
        && a.Codec.m_search = b.Codec.m_search
        && a.Codec.m_seed = b.Codec.m_seed
        && same_float a.Codec.m_threshold b.Codec.m_threshold
        && a.Codec.m_params = b.Codec.m_params
        && a.Codec.m_method = b.Codec.m_method
        && Optconfig.equal a.Codec.m_start b.Codec.m_start
        && a.Codec.m_faults = b.Codec.m_faults);
    t "session_result round-trips" arb_session_result Codec.session_result_to_json
      Codec.session_result_of_json
      (fun (a : Codec.session_result) (b : Codec.session_result) ->
        a.Codec.r_method = b.Codec.r_method
        && a.Codec.r_strategy = b.Codec.r_strategy
        && a.Codec.r_stages = b.Codec.r_stages
        && a.Codec.r_attempts = b.Codec.r_attempts
        && Optconfig.equal a.Codec.r_best b.Codec.r_best
        && a.Codec.r_ratings = b.Codec.r_ratings
        && a.Codec.r_iterations = b.Codec.r_iterations
        && same_trajectory a.Codec.r_trajectory b.Codec.r_trajectory
        && same_float a.Codec.r_tuning_cycles b.Codec.r_tuning_cycles
        && same_float a.Codec.r_tuning_seconds b.Codec.r_tuning_seconds
        && a.Codec.r_passes = b.Codec.r_passes
        && a.Codec.r_invocations = b.Codec.r_invocations
        && List.length a.Codec.r_quarantined = List.length b.Codec.r_quarantined
        && List.for_all2
             (fun (c1, x1) (c2, x2) -> Optconfig.equal c1 c2 && String.equal x1 x2)
             a.Codec.r_quarantined b.Codec.r_quarantined
        && a.Codec.r_retries = b.Codec.r_retries
        && same_metrics a.Codec.r_metrics b.Codec.r_metrics);
  ]

let test_version_guard () =
  let e =
    {
      Codec.e_method = "RBR";
      e_ctx = "c";
      e_base = "-";
      e_idx = 0;
      e_config = Optconfig.o3;
      e_eval = 1.0;
      e_converged = true;
      e_used = { Codec.c_invocations = 1; c_passes = 1; c_cycles = 1.0 };
      e_fail = None;
      e_retries = 0;
    }
  in
  let bump = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function "v", _ -> ("v", Json.Int (Codec.version + 1)) | f -> f)
             fields)
    | j -> j
  in
  match Codec.event_of_json (bump (Codec.event_to_json e)) with
  | Ok _ -> Alcotest.fail "decoder accepted a future format version"
  | Error msg ->
      Alcotest.(check bool) "error says the format is newer" true
        (Oracles.contains ~sub:"newer" (String.lowercase_ascii msg))

(* v4 numeric hygiene: non-finite floats are rejected at every decode
   boundary, while the same bytes stamped v3 still decode leniently —
   journals written before the rule must stay readable. *)
let set_version n = function
  | Json.Obj fields ->
      Json.Obj (List.map (function "v", _ -> ("v", Json.Int n) | f -> f) fields)
  | j -> j

let hygiene_event ?(eval = 1.0) ?fail ?(cycles = 1.0) () =
  {
    Codec.e_method = "RBR";
    e_ctx = "c";
    e_base = "-";
    e_idx = 0;
    e_config = Optconfig.o3;
    e_eval = eval;
    e_converged = true;
    e_used = { Codec.c_invocations = 1; c_passes = 1; c_cycles = cycles };
    e_fail = fail;
    e_retries = 0;
  }

let hygiene_result ?(cycles = 1.0) ?(seconds = 1.0) ?(trajectory = []) () =
  {
    Codec.r_method = "RBR";
    r_strategy = "ie";
    r_stages = [];
    r_attempts = [];
    r_best = Optconfig.o3;
    r_ratings = 1;
    r_iterations = 1;
    r_trajectory = trajectory;
    r_tuning_cycles = cycles;
    r_tuning_seconds = seconds;
    r_passes = 1;
    r_invocations = 1;
    r_quarantined = [];
    r_retries = 0;
    r_metrics = None;
  }

let rejects name decode j =
  match decode j with
  | Ok _ -> Alcotest.fail (name ^ ": decoder accepted a non-finite value")
  | Error msg ->
      Alcotest.(check bool) (name ^ ": one-line error") false (String.contains msg '\n')

let test_v4_rejects_nonfinite () =
  let ev e = Codec.event_to_json e in
  rejects "NaN eval" Codec.event_of_json (ev (hygiene_event ~eval:Float.nan ()));
  rejects "infinite eval without failure reason" Codec.event_of_json
    (ev (hygiene_event ~eval:Float.infinity ()));
  rejects "NaN cycles" Codec.event_of_json (ev (hygiene_event ~cycles:Float.nan ()));
  (* the quarantine sentinel — infinite eval *with* a reason — stays valid *)
  (match
     Codec.event_of_json (ev (hygiene_event ~eval:Float.infinity ~fail:"crashed" ()))
   with
  | Ok e ->
      Alcotest.(check bool) "quarantine sentinel survives" true
        (e.Codec.e_eval = Float.infinity)
  | Error e -> Alcotest.fail ("quarantine sentinel rejected: " ^ e));
  let meta threshold =
    Codec.session_meta_to_json
      {
        Codec.m_id = "id";
        m_benchmark = "ART";
        m_machine = "sparc2";
        m_dataset = "train";
        m_search = "be";
        m_seed = 1;
        m_threshold = threshold;
        m_params = "w40";
        m_method = "rbr";
        m_start = Optconfig.o3;
        m_faults = "-";
      }
  in
  rejects "NaN threshold" Codec.session_meta_of_json (meta Float.nan);
  rejects "NaN tuning cycles" Codec.session_result_of_json
    (Codec.session_result_to_json (hygiene_result ~cycles:Float.nan ()));
  rejects "infinite trajectory gain" Codec.session_result_of_json
    (Codec.session_result_to_json
       (hygiene_result ~trajectory:[ (Optconfig.o3, Float.infinity) ] ()))

let test_v3_lenient_decode () =
  (* identical bytes, version stamp rewritten to 3: the lenient path *)
  (match
     Codec.event_of_json (set_version 3 (Codec.event_to_json (hygiene_event ~eval:Float.nan ())))
   with
  | Ok e -> Alcotest.(check bool) "v3 NaN eval decodes" true (Float.is_nan e.Codec.e_eval)
  | Error e -> Alcotest.fail ("v3 event rejected: " ^ e));
  match
    Codec.session_result_of_json
      (set_version 3 (Codec.session_result_to_json (hygiene_result ~cycles:Float.nan ())))
  with
  | Ok r ->
      Alcotest.(check bool) "v3 NaN cycles decode" true (Float.is_nan r.Codec.r_tuning_cycles);
      Alcotest.(check bool) "v3 result has no metrics block" true (r.Codec.r_metrics = None)
  | Error e -> Alcotest.fail ("v3 result rejected: " ^ e)

let test_index_rejects_nonfinite () =
  let entry =
    {
      Index.key =
        {
          Index.k_benchmark = "ART";
          k_machine = "sparc2";
          k_method = "RBR";
          k_config = Optconfig.digest Optconfig.o3;
          k_ctx = "deadbeef";
        };
      session = "s1";
      config = Optconfig.o3;
      eval = 1.0;
      used = { Codec.c_invocations = 1; c_passes = 1; c_cycles = 1.0 };
    }
  in
  let idx0 = Index.create () in
  Index.add idx0 entry;
  let tamper = function
    | Json.Obj fields ->
        Json.Obj
          (List.map (function "eval", _ -> ("eval", Json.String "inf") | f -> f) fields)
    | j -> j
  in
  let doc v =
    match Index.to_json idx0 with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "v", _ -> ("v", Json.Int v)
               | "entries", Json.List [ e ] -> ("entries", Json.List [ tamper e ])
               | f -> f)
             fields)
    | j -> j
  in
  (match Index.of_json (doc Codec.version) with
  | Ok _ -> Alcotest.fail "v4 index accepted a non-finite eval"
  | Error msg ->
      Alcotest.(check bool) "error names the member" true
        (Oracles.contains ~sub:"eval" msg));
  (* a pre-v4 index skips the entry instead of failing the whole load *)
  match Index.of_json (doc 3) with
  | Ok idx -> Alcotest.(check int) "v3 index drops the bad entry" 0 (Index.size idx)
  | Error e -> Alcotest.fail ("v3 index rejected: " ^ e)

let test_config_digest_mismatch () =
  (* A record whose flag list was tampered with must be rejected. *)
  let j = Codec.optconfig_to_json Optconfig.o3 in
  let tampered =
    match j with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "flags", _ -> ("flags", Json.List [ Json.String "gcse" ]) | f -> f)
             fields)
    | j -> j
  in
  match Codec.optconfig_of_json tampered with
  | Ok _ -> Alcotest.fail "decoder accepted a digest mismatch"
  | Error _ -> ()

let test_json_parser_basics () =
  (match Json.of_string "\"a\\u00e9b\"" with
  | Ok (Json.String s) -> Alcotest.(check string) "\\u escape decodes to UTF-8" "a\xc3\xa9b" s
  | _ -> Alcotest.fail "unicode escape");
  (match Json.of_string "{\"x\": [1, 2.5, null, true]} " with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Json.of_string "{} garbage" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Optconfig digest stability                                          *)
(* ------------------------------------------------------------------ *)

let test_digest_order_independent () =
  (* Same flag set assembled in opposite orders digests identically. *)
  let flags = [ Flags.all.(3); Flags.all.(17); Flags.all.(30) ] in
  let fwd = List.fold_left Optconfig.enable Optconfig.o0 flags in
  let bwd = List.fold_left Optconfig.enable Optconfig.o0 (List.rev flags) in
  Alcotest.(check string) "digest order-independent" (Optconfig.digest fwd)
    (Optconfig.digest bwd);
  (* and the digest is an anchored function of the flag names, not the
     table indices: the empty config is the bare FNV-1a offset basis *)
  Alcotest.(check string) "o0 digest anchor" "cbf29ce484222325"
    (Optconfig.digest Optconfig.o0)

let digest_agrees_with_equal =
  QCheck.Test.make ~count:200 ~name:"digest agrees with equal/compare"
    (QCheck.pair arb_optconfig arb_optconfig) (fun (a, b) ->
      Optconfig.equal a b = (Optconfig.digest a = Optconfig.digest b)
      && Optconfig.equal a b = (Optconfig.compare a b = 0))

(* ------------------------------------------------------------------ *)
(* Journal crash tolerance                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_truncated_tail () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let j = Journal.open_append path in
  Journal.append j (Json.Obj [ ("a", Json.Int 1) ]);
  Journal.append j (Json.Obj [ ("a", Json.Int 2) ]);
  Journal.close j;
  (* simulate a torn final write: half a record, no newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"a\": 3, \"trunc";
  close_out oc;
  let records, dropped = Journal.read path in
  Alcotest.(check int) "two whole records survive" 2 (List.length records);
  Alcotest.(check int) "one line dropped" 1 dropped;
  Alcotest.(check (list int))
    "records in append order" [ 1; 2 ]
    (List.map (fun r -> Result.get_ok (Json.get_int "a" r)) records)

let test_journal_interior_corruption () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let oc = open_out path in
  output_string oc "{\"a\": 1}\nnot json at all\n{\"a\": 2}\n";
  close_out oc;
  let records, dropped = Journal.read path in
  Alcotest.(check int) "both good records survive" 2 (List.length records);
  Alcotest.(check int) "corrupt interior line dropped" 1 dropped

(* Torture: a journal truncated at *every* byte offset must read back
   without error as a prefix of the original records — whole lines
   survive, the torn tail is dropped, nothing is invented. *)
let test_journal_truncate_every_offset () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let j = Journal.open_append path in
  let payloads =
    [ Json.Int 1; Json.String "two\n\"three\""; Json.List [ Json.Float 2.5; Json.Null ];
      Json.Obj [ ("nested", Json.Obj [ ("deep", Json.Bool true) ]) ] ]
  in
  List.iteri (fun i p -> Journal.append j (Json.Obj [ ("i", Json.Int i); ("p", p) ])) payloads;
  Journal.close j;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  (* records recoverable from the first [k] bytes: every whole line,
     plus a torn tail that happens to end exactly at a record boundary
     (the newline alone was lost — the record itself is intact) *)
  let recoverable k =
    match String.split_on_char '\n' (String.sub contents 0 k) with
    | [] -> 0
    | parts ->
        let whole = List.length parts - 1 in
        let tail = List.nth parts whole in
        whole + (match Json.of_string tail with Ok _ -> 1 | Error _ -> 0)
  in
  let full, _ = Journal.read path in
  Alcotest.(check int) "all records readable" (List.length payloads) (List.length full);
  let cut = Filename.concat dir "cut.jsonl" in
  for k = 0 to len do
    let oc = open_out_bin cut in
    output_string oc (String.sub contents 0 k);
    close_out oc;
    let records, dropped = Journal.read cut in
    Alcotest.(check int)
      (Printf.sprintf "offset %d: whole-line prefix survives" k)
      (recoverable k) (List.length records);
    (* surviving records are exactly the original prefix *)
    List.iteri
      (fun i r ->
        Alcotest.(check int)
          (Printf.sprintf "offset %d: record %d intact" k i)
          i
          (Result.get_ok (Json.get_int "i" r)))
      records;
    Alcotest.(check bool)
      (Printf.sprintf "offset %d: at most one torn tail dropped" k)
      true (dropped <= 1)
  done

(* The fault hook: a torn flush persists exactly the chosen prefix,
   raises Torn_write, and leaves the journal closed — and the torn file
   recovers through [read] like any crash artifact. *)
let test_journal_tear_hook () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let torn_at = ref None in
  let tear ~flush ~size =
    if flush = 0 then begin
      torn_at := Some (size / 2);
      Some (size / 2)
    end
    else None
  in
  let j = Journal.open_append ~fsync_every:2 ~tear path in
  (* a long first record keeps the mid-batch tear inside it, so no
     whole line survives *)
  Journal.append j (Json.Obj [ ("a", Json.Int 1); ("pad", Json.String (String.make 100 'x')) ]);
  (match Journal.append j (Json.Obj [ ("a", Json.Int 2) ]) with
  | () -> Alcotest.fail "torn flush did not raise"
  | exception Journal.Torn_write -> ());
  (* the journal is dead, as after a power cut *)
  (match Journal.append j (Json.Obj [ ("a", Json.Int 3) ]) with
  | () -> Alcotest.fail "append to a torn journal succeeded"
  | exception Invalid_argument _ -> ());
  Journal.close j;
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  close_in ic;
  Alcotest.(check int) "exactly the torn prefix persisted" (Option.get !torn_at) len;
  let records, dropped = Journal.read path in
  Alcotest.(check int) "no whole record survived the torn batch" 0 (List.length records);
  Alcotest.(check int) "the torn tail is dropped, not fatal" 1 dropped

let test_journal_missing_file () =
  with_tmpdir @@ fun dir ->
  let records, dropped = Journal.read (Filename.concat dir "absent.jsonl") in
  Alcotest.(check int) "missing journal reads empty" 0 (List.length records);
  Alcotest.(check int) "nothing dropped" 0 dropped

(* ------------------------------------------------------------------ *)
(* Index: last write wins, save/load                                   *)
(* ------------------------------------------------------------------ *)

let test_index_last_write_wins () =
  with_tmpdir @@ fun dir ->
  let key =
    {
      Index.k_benchmark = "ART";
      k_machine = "sparc2";
      k_method = "RBR";
      k_config = Optconfig.digest Optconfig.o3;
      k_ctx = "deadbeef";
    }
  in
  let entry session eval =
    {
      Index.key;
      session;
      config = Optconfig.o3;
      eval;
      used = { Codec.c_invocations = 1; c_passes = 1; c_cycles = 1.0 };
    }
  in
  let idx = Index.create () in
  Index.add idx (entry "s1" 1.0);
  Index.add idx (entry "s2" 2.0);
  Alcotest.(check int) "one entry per key" 1 (Index.size idx);
  let winner = Index.fold (fun e _ -> Some e) idx None in
  (match winner with
  | Some e ->
      Alcotest.(check string) "last write wins" "s2" e.Index.session;
      Alcotest.(check (float 0.0)) "with its eval" 2.0 e.Index.eval
  | None -> Alcotest.fail "empty index");
  let path = Filename.concat dir "index.json" in
  Index.save idx path;
  let loaded = Result.get_ok (Index.load path) in
  Alcotest.(check int) "save/load preserves size" 1 (Index.size loaded)

(* ------------------------------------------------------------------ *)
(* Sessions: parameter safety and resume determinism                   *)
(* ------------------------------------------------------------------ *)

let meta_for ?start ?(seed = 11) ~method_ ~strategy b machine =
  Driver.session_meta ?start ~seed ~method_ ~strategy b machine Trace.Train

let test_session_rejects_changed_params () =
  with_tmpdir @@ fun dir ->
  let b = bench "ART" and machine = Machine.sparc2 in
  let meta = meta_for ~method_:Method.Rbr ~strategy:Strategy.Be b machine in
  let s = Result.get_ok (Session.open_ ~dir ~meta ()) in
  Session.close s;
  (* same id, different rating parameters: must refuse, not silently mix *)
  let params = { Rating.default_params with Rating.window = 80 } in
  let meta' =
    Driver.session_meta ~seed:11 ~method_:Method.Rbr ~strategy:Strategy.Be ~rating_params:params
      b machine Trace.Train
  in
  match Session.open_ ~dir ~meta:meta' () with
  | Ok s' ->
      Session.close s';
      Alcotest.fail "session reopened under different rating parameters"
  | Error msg ->
      Alcotest.(check bool) "one-line reason" false (String.contains msg '\n')

let resume_case ~bname ~method_ () =
  with_tmpdir @@ fun root ->
  let b = bench bname and machine = Machine.sparc2 in
  let strategy = Strategy.Be in
  let full_dir = Filename.concat root "full" in
  let meta = meta_for ~method_ ~strategy b machine in
  let id = meta.Codec.m_id in
  (* the uninterrupted reference run, journaling as it goes *)
  let session = Result.get_ok (Session.open_ ~dir:full_dir ~meta ()) in
  let full =
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () -> Driver.tune ~seed:11 ~strategy ~method_ ~store:session b machine Trace.Train)
  in
  let n_events = (Result.get_ok (Session.load_info ~dir:full_dir ~id)).Session.info_events in
  Alcotest.(check bool) (bname ^ ": session journaled events") true (n_events > 0);
  (* resume from a mid-session crash on 1, 2 and 4 domains *)
  List.iter
    (fun domains ->
      let dst_dir = Filename.concat root (Printf.sprintf "crash%d" domains) in
      let total = crashed_copy ~src_dir:full_dir ~dst_dir ~id ~keep:(n_events / 2) in
      ignore total;
      let session = Result.get_ok (Session.open_ ~dir:dst_dir ~meta ()) in
      Alcotest.(check int)
        (Printf.sprintf "%s -j%d: replayed the surviving prefix" bname domains)
        (n_events / 2) (Session.loaded_events session);
      let resumed =
        Fun.protect
          ~finally:(fun () -> Session.close session)
          (fun () ->
            let tune pool =
              Driver.tune ~seed:11 ~strategy ~method_ ?pool ~store:session b machine
                Trace.Train
            in
            if domains > 1 then Pool.run ~domains (fun p -> tune (Some p)) else tune None)
      in
      check_identical (Printf.sprintf "%s resumed -j%d vs uninterrupted" bname domains)
        full resumed;
      (* completion must have written the durable result, matching too *)
      let info = Result.get_ok (Session.load_info ~dir:dst_dir ~id) in
      match info.Session.info_result with
      | None -> Alcotest.fail "resumed session has no result.json"
      | Some r ->
          Alcotest.(check bool)
            (bname ^ ": stored best matches")
            true
            (Optconfig.equal r.Codec.r_best full.Driver.best_config))
    [ 1; 2; 4 ];
  (* a store-enabled run equals a pooled run without a store *)
  let pooled =
    Pool.run ~domains:2 (fun pool ->
        Driver.tune ~seed:11 ~strategy ~method_ ~pool b machine Trace.Train)
  in
  check_identical (bname ^ " store vs pool without store") full pooled

(* Kill/resume under the Remote Optimizer: compile stalls are charged at
   each rating's fold position, replayed ratings included, so a session
   aborted from its progress callback resumes to the uninterrupted
   ledger — and both equal a run without a store. *)
exception Killed

let test_compile_resume () =
  with_tmpdir @@ fun root ->
  let b = bench "SWIM" and machine = Machine.pentium4 in
  let method_ = Method.Cbr and compile = (Optimizer.Remote, 0.002) in
  let meta = meta_for ~method_ ~strategy:Strategy.Ie b machine in
  let tune ?progress dir =
    let session = Result.get_ok (Session.open_ ~dir ~meta ()) in
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () ->
        Driver.tune ~seed:11 ~method_ ~compile ?progress ~store:session b machine Trace.Train)
  in
  let full = tune (Filename.concat root "full") in
  let dir = Filename.concat root "killed" in
  (match tune ~progress:(fun ~ratings ~fresh:_ -> if ratings >= 30 then raise Killed) dir with
  | _ -> Alcotest.fail "session outlived its kill"
  | exception Killed -> ());
  check_identical "remote-compile resume vs uninterrupted" full (tune dir);
  check_identical "store vs no store" full
    (Driver.tune ~seed:11 ~method_ ~compile b machine Trace.Train)

(* Kill/resume across a fallback decision: a starved rating budget
   (max_invocations below the convergence window) makes every absolute
   probe fail, so an auto session walks the §3 chain down to RBR.  A
   crash kept to the first journal line lands between the failed probe
   and the committed method — the resume must replay the probe verdict
   from the store and land on the same chain, bit-identically, at any
   domain count. *)
let test_fallback_resume () =
  with_tmpdir @@ fun root ->
  let b = bench "MGRID" and machine = Machine.sparc2 in
  let strategy = Strategy.Be in
  let rating_params = { Rating.default_params with Rating.max_invocations = 30 } in
  let meta =
    Driver.session_meta ~seed:11 ~strategy ~rating_params b machine Trace.Train
  in
  let id = meta.Codec.m_id in
  let full_dir = Filename.concat root "full" in
  let session = Result.get_ok (Session.open_ ~dir:full_dir ~meta ()) in
  let full =
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () -> Driver.tune ~seed:11 ~strategy ~rating_params ~store:session b machine Trace.Train)
  in
  Alcotest.(check bool) "starved budget forced a fallback" true
    (List.length full.Driver.attempts > 1);
  Alcotest.(check string) "fell back to RBR" "RBR" (Method.name full.Driver.method_used);
  List.iter
    (fun (a : Method.attempt) ->
      if a.Method.a_method <> full.Driver.method_used then
        Alcotest.(check bool)
          (Method.name a.Method.a_method ^ " probe abandoned as non-converged")
          false a.Method.a_converged)
    full.Driver.attempts;
  let n_events = (Result.get_ok (Session.load_info ~dir:full_dir ~id)).Session.info_events in
  Alcotest.(check bool) "journaled beyond the probe" true (n_events > 1);
  (* keep = 1 slices right after the failed probe; n_events / 2 lands
     mid-search — both must resume to the identical result and chain *)
  List.iter
    (fun (keep, domains) ->
      let dst_dir = Filename.concat root (Printf.sprintf "crash%d_%d" keep domains) in
      ignore (crashed_copy ~src_dir:full_dir ~dst_dir ~id ~keep);
      let session = Result.get_ok (Session.open_ ~dir:dst_dir ~meta ()) in
      let resumed =
        Fun.protect
          ~finally:(fun () -> Session.close session)
          (fun () ->
            let tune pool =
              Driver.tune ~seed:11 ~strategy ~rating_params ?pool ~store:session b machine
                Trace.Train
            in
            if domains > 1 then Pool.run ~domains (fun p -> tune (Some p)) else tune None)
      in
      let tag = Printf.sprintf "fallback resume keep=%d -j%d" keep domains in
      check_identical tag full resumed;
      Alcotest.(check bool) (tag ^ ": same attempted-method chain") true
        (resumed.Driver.attempts = full.Driver.attempts);
      Alcotest.(check string) (tag ^ ": same committed method")
        (Method.name full.Driver.method_used)
        (Method.name resumed.Driver.method_used);
      let info = Result.get_ok (Session.load_info ~dir:dst_dir ~id) in
      match info.Session.info_result with
      | None -> Alcotest.fail (tag ^ ": resumed session has no result.json")
      | Some r ->
          Alcotest.(check string) (tag ^ ": stored method matches") "RBR" r.Codec.r_method;
          Alcotest.(check int) (tag ^ ": stored chain length matches")
            (List.length full.Driver.attempts)
            (List.length r.Codec.r_attempts))
    [ (1, 1); (1, 2); (1, 4); (n_events / 2, 1); (n_events / 2, 2); (n_events / 2, 4) ]

(* Kill/resume of a staged session: its screen trains on the store's
   rating index, written by [Session.gc] after a BE warmup, so a resume
   must read the same corpus and land on the uninterrupted result. *)
let test_staged_resume () =
  with_tmpdir @@ fun root ->
  let b = bench "ART" and machine = Machine.pentium4 in
  let method_ = Method.Rbr in
  let tune ~strategy dir =
    let meta = meta_for ~method_ ~strategy b machine in
    let session = Result.get_ok (Session.open_ ~dir ~meta ()) in
    Fun.protect
      ~finally:(fun () -> Session.close session)
      (fun () -> Driver.tune ~seed:11 ~strategy ~method_ ~store:session b machine Trace.Train)
  in
  let full_dir = Filename.concat root "full" in
  ignore (tune ~strategy:Strategy.Be full_dir);
  ignore (Result.get_ok (Session.gc ~dir:full_dir));
  let full = tune ~strategy:Strategy.Staged full_dir in
  let id = (meta_for ~method_ ~strategy:Strategy.Staged b machine).Codec.m_id in
  let n_events = (Result.get_ok (Session.load_info ~dir:full_dir ~id)).Session.info_events in
  let dst_dir = Filename.concat root "crash" in
  ignore (crashed_copy ~src_dir:full_dir ~dst_dir ~id ~keep:(n_events / 2));
  check_identical "staged resume vs uninterrupted" full (tune ~strategy:Strategy.Staged dst_dir)

(* ------------------------------------------------------------------ *)
(* Warm start                                                          *)
(* ------------------------------------------------------------------ *)

let fabricate_session ?(gain = 0.9) dir ~benchmark ~machine ~seed ~best =
  let id =
    Session.id_for ~benchmark ~machine ~dataset:"train" ~search:"be" ~method_:"rbr" ~seed
  in
  let meta =
    {
      Codec.m_id = id;
      m_benchmark = benchmark;
      m_machine = machine;
      m_dataset = "train";
      m_search = "be";
      m_seed = seed;
      m_threshold = 0.005;
      m_params = Rating.params_signature Rating.default_params;
      m_method = "rbr";
      m_start = Optconfig.o3;
      m_faults = "-";
    }
  in
  let s = Result.get_ok (Session.open_ ~dir ~meta ()) in
  Session.complete s
    {
      Codec.r_method = "RBR";
      r_strategy = "ie";
      r_stages = [ { Codec.st_label = "eliminate"; st_ratings = 1; st_flags = 1 } ];
      r_attempts = [ { Codec.at_method = "RBR"; at_converged = true; at_ratings = 1 } ];
      r_best = best;
      r_ratings = 1;
      r_iterations = 1;
      r_trajectory = [ (best, gain) ];
      r_tuning_cycles = 1.0;
      r_tuning_seconds = 1.0;
      r_passes = 1;
      r_invocations = 1;
      r_quarantined = [];
      r_retries = 0;
      r_metrics = None;
    };
  Session.close s

(* [tune --warm --store DIR] is [--kb] over the store's own corpus: its
   start is the top Knowledge.recommend row of a KB built from DIR —
   and of two configs a donor recorded, the better-performing one wins,
   not the one from the smaller session id. *)
let test_warmstart () =
  with_tmpdir @@ fun dir ->
  let machine = Machine.pentium4 in
  let kb () =
    match Knowledge.build ~dir with Ok kb -> kb | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "no start from an empty store" true
    (Knowledge.start (kb ()) (bench "MGRID") machine = None);
  let drop idxs =
    List.fold_left (fun c i -> Optconfig.disable c Flags.all.(i)) Optconfig.o3 idxs
  in
  let poor = drop [ 0; 1; 2 ] and good = drop [ 0; 1; 3 ] in
  (* ART tuned twice: the earlier session found a config worth 1.11x,
     the later one a config worth 2x *)
  fabricate_session dir ~benchmark:"ART" ~machine:machine.Machine.name ~seed:1 ~best:poor
    ~gain:0.1;
  fabricate_session dir ~benchmark:"ART" ~machine:machine.Machine.name ~seed:2 ~best:good
    ~gain:0.5;
  let kb = kb () in
  match
    ( Knowledge.start kb (bench "MGRID") machine,
      Knowledge.recommend kb ~benchmark:"MGRID" ~machine:machine.Machine.name () )
  with
  | Some r, top :: _ ->
      Alcotest.(check bool) "warm start is the top recommendation" true
        (Optconfig.equal r.Kb.rec_config top.Kb.rec_config);
      Alcotest.(check bool) "the better-performing config wins" true
        (Optconfig.equal r.Kb.rec_config good)
  | _ -> Alcotest.fail "no warm start despite history"

(* [Driver.session_args] inverts [Driver.session_meta]: for auto and
   every method, every strategy, and a capped, fault-injected,
   warm-started session, re-encoding the decoded arguments writes the
   same meta.json bytes.  An unreadable field is a typed error. *)
let test_session_args_roundtrip () =
  let bytes m = Json.to_string (Codec.session_meta_to_json m) in
  let roundtrip label meta =
    match Driver.session_args meta with
    | Error e -> Alcotest.failf "%s: %s" label e
    | Ok a ->
        Alcotest.(check string) label (bytes meta)
          (bytes
             (Driver.session_meta ?method_:a.Driver.sa_method ~strategy:a.Driver.sa_strategy
                ~rating_params:a.Driver.sa_params ~threshold:a.Driver.sa_threshold
                ~seed:a.Driver.sa_seed ~start:a.Driver.sa_start ?faults:a.Driver.sa_faults
                a.Driver.sa_benchmark a.Driver.sa_machine a.Driver.sa_dataset))
  in
  let mgrid = bench "MGRID" in
  List.iter
    (fun m ->
      roundtrip
        ("method " ^ Option.fold ~none:"auto" ~some:Method.key m)
        (Driver.session_meta ?method_:m mgrid Machine.sparc2 Trace.Ref))
    (None :: List.map Option.some Method.all);
  List.iter
    (fun s ->
      roundtrip ("strategy " ^ Strategy.key s)
        (Driver.session_meta ~strategy:s mgrid Machine.pentium4 Trace.Train))
    (Strategy.Random 7 :: Strategy.all);
  roundtrip "capped, faulty, warm"
    (Driver.session_meta ~method_:Method.Rbr
       ~rating_params:{ Rating.default_params with Rating.max_invocations = 30 }
       ~threshold:0.01 ~seed:3
       ~start:(Optconfig.disable Optconfig.o3 (Option.get (Flags.by_name "schedule-insns")))
       ~faults:(Peak_sim.Fault.create ~spec:Peak_sim.Fault.default_spec ~seed:7 ())
       (bench "ART") Machine.pentium4 Trace.Train);
  let meta = Driver.session_meta mgrid Machine.sparc2 Trace.Train in
  List.iter
    (fun (label, bad, want) ->
      match Driver.session_args bad with
      | Ok _ -> Alcotest.failf "%s: decoded" label
      | Error e ->
          Alcotest.(check bool) (label ^ ": " ^ e) true (Oracles.contains ~sub:want e))
    [
      ("params", { meta with Codec.m_params = "window=ten" }, "unreadable rating parameters");
      ("faults", { meta with Codec.m_faults = "crash=lots" }, "unreadable fault plan");
      ("benchmark", { meta with Codec.m_benchmark = "NOPE" }, "unknown benchmark NOPE");
      ("machine", { meta with Codec.m_machine = "vax" }, "unknown machine vax");
      ("dataset", { meta with Codec.m_dataset = "big" }, "unknown dataset big");
      ("search", { meta with Codec.m_search = "bogus" }, "unknown search bogus");
      ("method", { meta with Codec.m_method = "bogus" }, "unknown rating method bogus");
    ]

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "store.codec",
      List.map QCheck_alcotest.to_alcotest (roundtrip_tests @ [ digest_agrees_with_equal ])
      @ [
          Alcotest.test_case "future format version rejected" `Quick test_version_guard;
          Alcotest.test_case "v4 rejects non-finite floats" `Quick test_v4_rejects_nonfinite;
          Alcotest.test_case "v3 records still decode leniently" `Quick
            test_v3_lenient_decode;
          Alcotest.test_case "index rejects non-finite evals" `Quick
            test_index_rejects_nonfinite;
          Alcotest.test_case "tampered config digest rejected" `Quick
            test_config_digest_mismatch;
          Alcotest.test_case "JSON parser basics" `Quick test_json_parser_basics;
          Alcotest.test_case "optconfig digest is order-independent" `Quick
            test_digest_order_independent;
          Alcotest.test_case "stored meta decodes to its arguments" `Quick
            test_session_args_roundtrip;
        ] );
    ( "store.journal",
      [
        Alcotest.test_case "truncated tail tolerated" `Quick test_journal_truncated_tail;
        Alcotest.test_case "interior corruption tolerated" `Quick
          test_journal_interior_corruption;
        Alcotest.test_case "truncation tolerated at every byte offset" `Quick
          test_journal_truncate_every_offset;
        Alcotest.test_case "torn flush persists a prefix and dies" `Quick
          test_journal_tear_hook;
        Alcotest.test_case "missing journal reads empty" `Quick test_journal_missing_file;
        Alcotest.test_case "index last-write-wins and save/load" `Quick
          test_index_last_write_wins;
      ] );
    ( "store.resume",
      [
        Alcotest.test_case "changed rating params rejected" `Slow
          test_session_rejects_changed_params;
        Alcotest.test_case "CBR resume bit-identical (SWIM)" `Slow
          (resume_case ~bname:"SWIM" ~method_:Method.Cbr);
        Alcotest.test_case "MBR resume bit-identical (MGRID)" `Slow
          (resume_case ~bname:"MGRID" ~method_:Method.Mbr);
        Alcotest.test_case "RBR resume bit-identical (ART)" `Slow
          (resume_case ~bname:"ART" ~method_:Method.Rbr);
        Alcotest.test_case "kill/resume across a fallback decision" `Slow
          test_fallback_resume;
        Alcotest.test_case "kill/resume with compiles" `Slow test_compile_resume;
        Alcotest.test_case "kill/resume of a staged session" `Slow test_staged_resume;
      ] );
    ("store.warmstart", [ Alcotest.test_case "warm start proposals" `Quick test_warmstart ]);
  ]
