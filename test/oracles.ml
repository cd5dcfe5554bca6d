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
   exactly what a SIGKILL between fsync batches leaves behind.  The
   store's rating index, when [Session.gc] wrote one, is copied too: a
   staged session's screen trains on it.  Returns the source journal's
   total line count. *)
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
  let copy src dst name =
    let ic = open_in (Filename.concat src name) in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    let oc = open_out (Filename.concat dst name) in
    output_string oc contents;
    close_out oc
  in
  copy src dst "meta.json";
  if Sys.file_exists (Filename.concat src_dir "index.json") then
    copy src_dir dst_dir "index.json";
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

(* The string-keyed context read that source handles replaced: the
   value of a context source, raising what a handle read must raise
   (test_ir.ml, test_tape.ml). *)
let read_source env =
  let open Peak_ir in
  function
  | Expr.Scalar v -> Interp.get_scalar env v
  | Expr.Array_elem (a, Some k) ->
      let arr = Interp.get_array env a in
      if k < 0 || k >= Array.length arr then
        raise (Interp.Out_of_bounds (Printf.sprintf "%s[%d] (context read)" a k));
      arr.(k)
  | Expr.Array_elem (a, None) ->
      raise (Interp.Out_of_bounds (Printf.sprintf "%s[non-constant] is not a context source" a))
  | Expr.Pointer_deref p -> Interp.get_scalar env (Interp.get_pointer env p)

(* The string-keyed hashtable interpreter the compiled interpreter
   replaced, kept as the executable specification it is differentially
   tested against (test_compile.ml).  It carries the same two
   accounting rules as the compiled path: a subscript is range-checked
   as a float (negative fractions, nan, infinities and values past the
   int range raise), and touches are numbered by [Interp.bases] — a touch of a base
   outside that table fails the oracle, so the table is checked along
   with the counts. *)
module Reference_interp = struct
  open Peak_ir

  type renv = {
    scalars : (string, float) Hashtbl.t;
    arrays : (string, float array) Hashtbl.t;
    pointers : (string, string) Hashtbl.t;
  }

  let oob fmt = Printf.ksprintf (fun m -> raise (Interp.Out_of_bounds m)) fmt

  let make_env (ts : Types.ts) =
    let scalars = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace scalars v 0.0) ts.params;
    List.iter (fun v -> Hashtbl.replace scalars v 0.0) ts.locals;
    let arrays = Hashtbl.create 8 in
    List.iter (fun (a, n) -> Hashtbl.replace arrays a (Array.make n 0.0)) ts.arrays;
    let pointers = Hashtbl.create 4 in
    List.iter (fun (p, target) -> Hashtbl.replace pointers p target) ts.pointers;
    { scalars; arrays; pointers }

  let set_scalar env v x = Hashtbl.replace env.scalars v x

  let get_scalar env v =
    match Hashtbl.find_opt env.scalars v with Some x -> x | None -> oob "unknown scalar %s" v

  let set_array env a x = Hashtbl.replace env.arrays a x

  let get_array env a =
    match Hashtbl.find_opt env.arrays a with Some x -> x | None -> oob "unknown array %s" a

  let get_pointer env p =
    match Hashtbl.find_opt env.pointers p with Some t -> t | None -> oob "unknown pointer %s" p

  (* accesses per base name *)
  let touch accesses base =
    Hashtbl.replace accesses base (1 + Option.value ~default:0 (Hashtbl.find_opt accesses base))

  (* the subscript is checked as a float before it is truncated; the
     message floors it, printed as an int while it is one *)
  let array_ref env accesses a i_float context =
    let arr = get_array env a in
    if not (i_float >= 0.0 && i_float < float_of_int (Array.length arr)) then begin
      let f = floor i_float in
      oob "%s[%s] out of [0,%d) in %s" a
        (if Float.abs f < 0x1p62 then string_of_int (int_of_float f)
         else Printf.sprintf "%.0f" f)
        (Array.length arr) context
    end;
    touch accesses a;
    (arr, int_of_float i_float)

  let rec eval_counted env accesses e =
    match e with
    | Types.Const k -> k
    | Types.Var v -> get_scalar env v
    | Types.Index (a, sub) ->
        let i = eval_counted env accesses sub in
        let arr, idx = array_ref env accesses a i "read" in
        arr.(idx)
    | Types.Deref p ->
        let target = get_pointer env p in
        touch accesses p;
        get_scalar env target
    | Types.Unop (op, e) -> Expr.apply_unop op (eval_counted env accesses e)
    | Types.Binop (op, a, b) ->
        let x = eval_counted env accesses a in
        let y = eval_counted env accesses b in
        Expr.apply_binop op x y
    | Types.Cmp (op, a, b) ->
        let x = eval_counted env accesses a in
        let y = eval_counted env accesses b in
        Expr.apply_cmp op x y

  let run ?(max_steps = 10_000_000) (cfg : Cfg.t) env =
    let accesses = Hashtbl.create 8 in
    let block_counts = Array.make (Cfg.n_blocks cfg) 0 in
    let steps = ref 0 in
    let exec_simple (s : Cfg.simple) =
      match s with
      | SAssign (x, e) -> set_scalar env x (eval_counted env accesses e)
      | SStore (a, i, e) ->
          let idx_v = eval_counted env accesses i in
          let value = eval_counted env accesses e in
          let arr, idx = array_ref env accesses a idx_v "write" in
          arr.(idx) <- value
      | SPtrStore (p, e) ->
          let value = eval_counted env accesses e in
          let target = get_pointer env p in
          touch accesses p;
          set_scalar env target value
      | SPtrSet (p, v) -> Hashtbl.replace env.pointers p v
      | SCall _ -> ()
    in
    let rec go id =
      incr steps;
      if !steps > max_steps then
        raise
          (Interp.Step_limit_exceeded
             (Printf.sprintf "%s: > %d block entries" cfg.ts.name max_steps));
      block_counts.(id) <- block_counts.(id) + 1;
      let b = Cfg.block cfg id in
      Array.iter exec_simple b.stmts;
      match b.term with
      | Goto next -> go next
      | Branch (c, if_true, if_false) ->
          go (if eval_counted env accesses c <> 0.0 then if_true else if_false)
      | Exit -> ()
    in
    go cfg.entry;
    let bases = Interp.bases cfg in
    Hashtbl.iter
      (fun base _ ->
        if not (Array.mem base bases) then
          failwith ("Reference_interp: touched base " ^ base ^ " has no slot"))
      accesses;
    {
      Interp.block_counts;
      touches =
        Array.map (fun base -> Option.value ~default:0 (Hashtbl.find_opt accesses base)) bases;
    }
end

(* The name-keyed list memory system the slot-indexed [Memsys]
   replaced: residency is a list of named entries, searched and refolded
   on every touch.  The slot model must charge bit-identically and leave
   the same residency after every step (test_machine.ml). *)
module List_memsys = struct
  open Peak_machine

  type access = { base : string; bytes : int; touches : int }
  type entry = { name : string; mutable size : int; mutable stamp : int }

  type t = {
    machine : Machine.t;
    capacity : int;
    rng : Peak_util.Rng.t option;
    mutable entries : entry list;
    mutable clock : int;
  }

  let create ?rng (machine : Machine.t) =
    { machine; capacity = machine.l2_bytes; rng; entries = []; clock = 0 }

  let flush t = t.entries <- []
  let is_resident t name = List.exists (fun e -> e.name = name) t.entries
  let resident_bytes t = List.fold_left (fun acc e -> acc + e.size) 0 t.entries

  let evict_to_capacity t =
    let rec go () =
      if resident_bytes t > t.capacity then begin
        match t.entries with
        | [] -> ()
        | first :: _ ->
            (* evict least recently stamped *)
            let lru =
              List.fold_left (fun acc e -> if e.stamp < acc.stamp then e else acc) first
                t.entries
            in
            t.entries <- List.filter (fun e -> e != lru) t.entries;
            go ()
      end
    in
    go ()

  let touch t (a : access) =
    t.clock <- t.clock + 1;
    let cached_bytes = min a.bytes t.capacity in
    (match List.find_opt (fun e -> e.name = a.base) t.entries with
    | Some e ->
        e.stamp <- t.clock;
        e.size <- max e.size cached_bytes
    | None -> t.entries <- { name = a.base; size = cached_bytes; stamp = t.clock } :: t.entries);
    evict_to_capacity t

  let miss_lines t (a : access) ~resident =
    let line = t.machine.l2_line in
    let lines_touched = max 1 ((a.bytes + line - 1) / line) in
    let cold = if resident then 0.0 else float_of_int (min lines_touched a.touches) in
    let capacity =
      if a.bytes <= t.capacity then 0.0
      else begin
        let uncached_fraction = 1.0 -. (float_of_int t.capacity /. float_of_int a.bytes) in
        let elems_per_line = float_of_int (line / 8) in
        let base = float_of_int a.touches /. elems_per_line *. uncached_fraction in
        match t.rng with
        | None -> base
        | Some rng -> base *. Float.max 0.2 (Peak_util.Rng.gaussian rng ~mean:1.0 ~stddev:0.25)
      end
    in
    cold +. capacity

  let charge t accesses =
    let miss_cost = t.machine.mem_cycles -. t.machine.l1_hit_cycles in
    List.fold_left
      (fun acc a ->
        if a.touches <= 0 || a.bytes <= 0 then acc
        else begin
          let resident = is_resident t a.base in
          let cost = miss_lines t a ~resident *. miss_cost in
          touch t a;
          acc +. cost
        end)
      0.0 accesses
end

(* The boxed splitmix64 [Peak_util.Rng] replaced: the state is an
   [int64] record field, so every draw boxes a fresh state.  The unboxed
   generator must yield the same stream under every operation
   (test_util.ml). *)
module Reference_rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L
  let create ~seed = { state = Int64.of_int seed }
  let copy t = { state = t.state }

  let int64 t =
    t.state <- Int64.add t.state golden_gamma;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let split t =
    let s = int64 t in
    { state = s }

  let float t =
    let bits = Int64.shift_right_logical (int64 t) 11 in
    Int64.to_float bits *. (1.0 /. 9007199254740992.0)

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    let v = Int64.to_int (int64 t) land max_int in
    v mod bound

  let bool t = Int64.logand (int64 t) 1L = 1L

  let gaussian t ~mean ~stddev =
    let rec draw () =
      let u1 = float t in
      if u1 <= 1e-300 then draw ()
      else
        let u2 = float t in
        let r = sqrt (-2.0 *. log u1) in
        mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))
    in
    draw ()

  let exponential t ~rate =
    if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
    let rec draw () =
      let u = float t in
      if u <= 1e-300 then draw () else -.log u /. rate
    in
    draw ()

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

(* The profile run [Profile.run] replaced: every invocation copies its
   context out of the runner into an array of its own (and a sampled
   invocation its counts), and the context table rebuilds each pruned
   key through lists, re-inserts a tuple, and is sorted into a list of
   every context.  Its result keeps that list, so it has a type of its
   own.  The streaming profile must equal it in every field, its count,
   head and [Profile.contexts] against the list, order included
   (test_core.ml). *)
module Reference_profile = struct
  open Peak_workload

  type context_info =
    | Cbr_ok of {
        sources : Peak_ir.Expr.source list;
        stats : Profile.context_stat list;  (** Sorted by descending time share. *)
        runtime_constant_arrays : string list;
        pruned : Peak_ir.Expr.source list;
      }
    | Cbr_no of string

  type t = {
    n_invocations : int;
    avg_invocation_cycles : float;
    context : context_info;
    components : Component_analysis.t;
    count_samples : int array array;
    impure_calls : bool;
    block_weights : float array;
    avg_component_counts : float array;
    dominant_component : int;
    ts_pass_cycles : float;
  }

  (* [p]'s fields but the context, as a [Profile.t] whose context is
     [Cbr_no ""] *)
  let without_context p =
    {
      Profile.n_invocations = p.n_invocations;
      avg_invocation_cycles = p.avg_invocation_cycles;
      context = Profile.Cbr_no "";
      components = p.components;
      count_samples = p.count_samples;
      impure_calls = p.impure_calls;
      block_weights = p.block_weights;
      avg_component_counts = p.avg_component_counts;
      dominant_component = p.dominant_component;
      ts_pass_cycles = p.ts_pass_cycles;
    }

  let run ?(seed = 7) ?(max_count_samples = 240) tsec trace machine =
    let o3 = Version.compile machine tsec.Tsection.features Optconfig.o3 in
    let runner = Runner.create ~seed ~context_switch_rate:0.0 tsec trace machine in
    let verdict = Context_analysis.analyze tsec ~mutated_arrays:trace.Trace.mutated_arrays in
    let candidate_sources =
      match verdict with
      | Context_analysis.Applicable { sources; _ } -> sources
      | Context_analysis.Not_applicable _ -> []
    in
    let n = trace.Trace.length in
    let sample_here =
      let marks = Array.make n false in
      let order = Array.init n (fun i -> i) in
      Peak_util.Rng.shuffle (Peak_util.Rng.create ~seed:(seed * 31)) order;
      for j = 0 to min n max_count_samples - 1 do
        marks.(order.(j)) <- true
      done;
      marks
    in
    let samples = ref [] in
    let ctx_values = Array.make n [||] in
    let times = Array.make n 0.0 in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      let time = Runner.step ~context:candidate_sources runner o3 in
      times.(i) <- time;
      total := !total +. time;
      ctx_values.(i) <- Array.copy (Runner.context runner);
      if sample_here.(i) then samples := Array.copy (Runner.counts runner) :: !samples
    done;
    let count_samples = Array.of_list (List.rev !samples) in
    let components = Component_analysis.analyze ~samples:count_samples in
    let context =
      match verdict with
      | Context_analysis.Not_applicable reason -> Cbr_no reason
      | Context_analysis.Applicable { sources; runtime_constant_arrays } ->
          let n_src = List.length sources in
          let keep = Array.make n_src false in
          if n > 0 then
            for j = 0 to n_src - 1 do
              let first = ctx_values.(0).(j) in
              for i = 1 to n - 1 do
                if ctx_values.(i).(j) <> first then keep.(j) <- true
              done
            done;
          let kept_sources = List.filteri (fun j _ -> keep.(j)) sources in
          let pruned = List.filteri (fun j _ -> not keep.(j)) sources in
          let tbl = Hashtbl.create 16 in
          for i = 0 to n - 1 do
            let key =
              Array.of_list (List.filteri (fun j _ -> keep.(j)) (Array.to_list ctx_values.(i)))
            in
            let count, time = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl key) in
            Hashtbl.replace tbl key (count + 1, time +. times.(i))
          done;
          let stats =
            Hashtbl.fold
              (fun values (count, time) acc ->
                { Profile.values; count; time_share = time /. Float.max 1.0 !total } :: acc)
              tbl []
            |> List.sort (fun a b -> compare b.Profile.time_share a.Profile.time_share)
          in
          Cbr_ok { sources = kept_sources; stats; runtime_constant_arrays; pruned }
    in
    let avg_component_counts = Component_analysis.avg_counts components ~samples:count_samples in
    let block_weights = o3.Version.block_cycles in
    {
      n_invocations = n;
      avg_invocation_cycles = !total /. float_of_int (max 1 n);
      context;
      components;
      count_samples;
      impure_calls = Tsection.has_impure_calls tsec;
      block_weights;
      avg_component_counts;
      dominant_component = Component_analysis.dominant components ~weights:block_weights;
      ts_pass_cycles = !total;
    }
end
