(* Tests for the simulated-machine substrate. *)

open Peak_util
open Peak_machine

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_cold_miss_then_hit () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 in
  Alcotest.(check bool) "first access misses" true (Cache.access c 0 = Cache.Miss);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0 = Cache.Hit);
  Alcotest.(check bool) "same line hits" true (Cache.access c 63 = Cache.Hit);
  Alcotest.(check bool) "next line misses" true (Cache.access c 64 = Cache.Miss)

let test_cache_lru_eviction () =
  (* 2-way set: fill both ways, touch the first, insert a third: the
     second (least recently used) must be evicted *)
  let c = Cache.create ~size_bytes:1024 ~line_bytes:64 ~assoc:2 in
  let sets = Cache.sets c in
  let stride = sets * 64 in
  ignore (Cache.access c 0);
  ignore (Cache.access c stride);
  ignore (Cache.access c 0);
  (* refresh line 0 *)
  ignore (Cache.access c (2 * stride));
  (* evicts line at [stride] *)
  Alcotest.(check bool) "line 0 still resident" true (Cache.access c 0 = Cache.Hit);
  Alcotest.(check bool) "line stride evicted" true (Cache.access c stride = Cache.Miss)

let test_cache_flush () =
  let c = Cache.create ~size_bytes:512 ~line_bytes:64 ~assoc:1 in
  ignore (Cache.access c 0);
  Cache.flush c;
  Alcotest.(check bool) "miss after flush" true (Cache.access c 0 = Cache.Miss)

let test_cache_stats_and_miss_rate () =
  let c = Cache.create ~size_bytes:512 ~line_bytes:64 ~assoc:1 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  let hits, misses = Cache.stats c in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 2 misses;
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Cache.miss_rate c);
  Cache.reset_stats c;
  Alcotest.(check (float 1e-9)) "rate after reset" 0.0 (Cache.miss_rate c)

let test_cache_invalid_params () =
  Alcotest.(check bool) "bad line" true
    (try
       ignore (Cache.create ~size_bytes:1000 ~line_bytes:64 ~assoc:2);
       false
     with Invalid_argument _ -> true)

let test_cache_working_set_behaviour () =
  (* streaming over 2x the cache size: second pass still misses;
     streaming over half the cache: second pass all hits *)
  let c = Cache.create ~size_bytes:4096 ~line_bytes:64 ~assoc:4 in
  let stream bytes =
    Cache.reset_stats c;
    let n = bytes / 8 in
    for pass = 1 to 2 do
      ignore pass;
      for i = 0 to n - 1 do
        ignore (Cache.access c (i * 8))
      done
    done;
    Cache.miss_rate c
  in
  let small = stream 2048 in
  Cache.flush c;
  let large = stream 16384 in
  (* small: 32 lines miss once out of 512 accesses = 6.25% *)
  Alcotest.(check bool) "small ws second pass hits" true (small < 0.07);
  Alcotest.(check bool) "large ws keeps missing" true (large > 0.10);
  Alcotest.(check bool) "large misses more than small" true (large > small)

(* ------------------------------------------------------------------ *)
(* Memsys                                                              *)
(* ------------------------------------------------------------------ *)

(* A memory system over slots of the given extents. *)
let memsys machine bytes = Memsys.create machine ~bytes:(Array.of_list bytes)

let test_memsys_cold_then_warm () =
  let m = memsys Machine.sparc2 [ 4096 ] in
  let cold = Memsys.charge m [| 512 |] in
  let warm = Memsys.charge m [| 512 |] in
  Alcotest.(check bool) "cold charge positive" true (cold > 0.0);
  Alcotest.(check (float 1e-9)) "warm charge zero for cache-fitting array" 0.0 warm;
  Alcotest.(check bool) "resident" true (Memsys.is_resident m 0)

let test_memsys_warm_preconditions () =
  (* RBR's preconditioning execution is charged like a timed one: after
     it, the timed execution of either version finds both arrays warm *)
  let m = memsys Machine.sparc2 [ 4096; 8192 ] in
  ignore (Memsys.charge m [| 512; 1024 |]);
  Alcotest.(check (float 1e-9)) "no charge after preconditioning" 0.0
    (Memsys.charge m [| 512; 1024 |]);
  Alcotest.(check (float 1e-9)) "nor for one slot of it" 0.0 (Memsys.charge m [| 0; 1024 |])

let test_memsys_flush () =
  let m = memsys Machine.sparc2 [ 4096 ] in
  ignore (Memsys.charge m [| 512 |]);
  Memsys.flush m;
  Alcotest.(check bool) "flushed" false (Memsys.is_resident m 0);
  Alcotest.(check int) "nothing resident" 0 (Memsys.resident_bytes m);
  Alcotest.(check bool) "cold again" true (Memsys.charge m [| 512 |] > 0.0)

let test_memsys_eviction () =
  let m = memsys Machine.pentium4 [ 409600; 409600 ] in
  (* P4 L2 = 512K; two 400K arrays cannot both stay resident *)
  ignore (Memsys.charge m [| 1000; 0 |]);
  ignore (Memsys.charge m [| 0; 1000 |]);
  Alcotest.(check bool) "b resident" true (Memsys.is_resident m 1);
  Alcotest.(check bool) "a evicted" false (Memsys.is_resident m 0);
  Alcotest.(check bool) "capacity respected" true
    (Memsys.resident_bytes m <= Machine.pentium4.l2_bytes)

let test_memsys_oversized_array_always_charges () =
  let m = memsys Machine.pentium4 [ 4 * 1024 * 1024 ] in
  ignore (Memsys.charge m [| 100000 |]);
  let again = Memsys.charge m [| 100000 |] in
  Alcotest.(check bool) "capacity misses persist" true (again > 0.0)

let test_memsys_zero_touch_free () =
  let m = memsys Machine.sparc2 [ 4096 ] in
  Alcotest.(check (float 1e-9)) "no touches, no cost" 0.0 (Memsys.charge m [| 0 |]);
  Alcotest.(check bool) "and no residency" false (Memsys.is_resident m 0)

(* ------------------------------------------------------------------ *)
(* Noise                                                               *)
(* ------------------------------------------------------------------ *)

let test_noise_spike_free_bounded () =
  let rng = Rng.create ~seed:7 in
  let n = Noise.create ~rng Machine.sparc2 in
  for _ = 1 to 1000 do
    let x = Noise.spike_free n 1000.0 in
    if x < 900.0 || x > 1100.0 then Alcotest.failf "jitter out of bounds: %f" x
  done

let test_noise_mean_preserved () =
  let rng = Rng.create ~seed:11 in
  let n = Noise.create ~rng Machine.sparc2 in
  let samples = Array.init 20000 (fun _ -> Noise.apply n 1000.0) in
  (* spikes push the mean up slightly; the median is robust *)
  Alcotest.(check (float 5.0)) "median near true cost" 1000.0 (Stats.median samples)

let test_noise_produces_outliers () =
  let rng = Rng.create ~seed:13 in
  let n = Noise.create ~rng Machine.pentium4 in
  let samples = Array.init 20000 (fun _ -> Noise.apply n 1000.0) in
  let spikes = Array.fold_left (fun acc x -> if x > 1500.0 then acc + 1 else acc) 0 samples in
  Alcotest.(check bool) "some spikes occur" true (spikes > 10);
  Alcotest.(check bool) "spikes are rare" true (spikes < 500)

let test_noise_deterministic_under_seed () =
  let sample seed =
    let rng = Rng.create ~seed in
    let n = Noise.create ~rng Machine.sparc2 in
    Array.init 100 (fun _ -> Noise.apply n 500.0)
  in
  Alcotest.(check (array (float 0.0))) "same seed same noise" (sample 42) (sample 42)

(* ------------------------------------------------------------------ *)
(* Cost                                                                *)
(* ------------------------------------------------------------------ *)

let test_cost_monotone_in_ops () =
  let w = { Cost.zero with alu = 10.0; mem = 4.0; ilp = 1.0 } in
  let more = { w with alu = 20.0 } in
  Alcotest.(check bool) "more alu costs more" true
    (Cost.cycles Machine.sparc2 more > Cost.cycles Machine.sparc2 w)

let test_cost_ilp_helps () =
  let w = { Cost.zero with alu = 12.0; ilp = 1.0 } in
  let parallel = { w with ilp = 2.0 } in
  Alcotest.(check bool) "ilp reduces cycles" true
    (Cost.cycles Machine.sparc2 parallel < Cost.cycles Machine.sparc2 w)

let test_cost_ilp_capped_by_issue_width () =
  let w = { Cost.zero with alu = 12.0; ilp = 10.0 } in
  let at_width = { w with ilp = float_of_int Machine.sparc2.issue_width } in
  Alcotest.(check (float 1e-9)) "capped" (Cost.cycles Machine.sparc2 at_width)
    (Cost.cycles Machine.sparc2 w)

let test_cost_spills_expensive () =
  let w = { Cost.zero with alu = 6.0; mem = 2.0 } in
  let spilled = { w with spill_mem = 4.0 } in
  let base = Cost.cycles Machine.pentium4 w in
  let with_spill = Cost.cycles Machine.pentium4 spilled in
  (* spill ops are priced at 2x L1 hit: 4 spills = 16 cycles on P4 *)
  Alcotest.(check (float 1e-6)) "spill cost" (base +. 16.0) with_spill

let test_cost_branch_penalty_machine_dependent () =
  let w = { Cost.zero with branches = 1.0; mispredict_rate = 0.2 } in
  let sparc = Cost.cycles Machine.sparc2 w in
  let p4 = Cost.cycles Machine.pentium4 w in
  Alcotest.(check bool) "deep pipeline pays more" true (p4 > sparc)

let test_cost_positive () =
  Alcotest.(check bool) "floor" true (Cost.cycles Machine.sparc2 Cost.zero > 0.0)

let test_machine_lookup () =
  (match Machine.by_name "sparc ii" with
  | Some m -> Alcotest.(check string) "found" "SPARC II" m.name
  | None -> Alcotest.fail "sparc lookup");
  Alcotest.(check bool) "unknown" true (Machine.by_name "vax" = None)

let test_seconds_of_cycles () =
  Alcotest.(check (float 1e-12)) "2GHz" 0.5e-9 (Machine.seconds_of_cycles Machine.pentium4 1.0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_cache_total_accesses =
  QCheck.Test.make ~name:"cache hits+misses = accesses" ~count:100
    QCheck.(pair (int_range 1 500) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let c = Cache.create ~size_bytes:2048 ~line_bytes:64 ~assoc:2 in
      for _ = 1 to n do
        ignore (Cache.access c (Rng.int rng 100_000))
      done;
      let h, m = Cache.stats c in
      h + m = n)

let prop_memsys_nonnegative =
  QCheck.Test.make ~name:"memsys charge is nonnegative" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let m = memsys Machine.pentium4 (List.init 5 (fun _ -> 8 * (1 + Rng.int rng 100_000))) in
      let ok = ref true in
      for _ = 1 to n do
        let touches = Array.make 5 0 in
        touches.(Rng.int rng 5) <- Rng.int rng 10_000;
        if Memsys.charge m touches < 0.0 then ok := false
      done;
      !ok)

(* The slot memory system against the name-keyed list model it replaced
   (Oracles.List_memsys): over a random stream of invocations on a small
   base universe — extents on both sides of the machine's L2 capacity,
   zero touches, interleaved flushes — every charge is bit-identical and
   the residency equal after every step, without jitter and with a
   jitter RNG seeded alike on both sides. *)
let prop_memsys_matches_list_model =
  QCheck.Test.make ~name:"slot memsys matches the list model" ~count:300
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (seed, p4) ->
      let machine = if p4 then Machine.pentium4 else Machine.sparc2 in
      let cap = machine.Machine.l2_bytes in
      let rng = Rng.create ~seed in
      let n = 1 + Rng.int rng 6 in
      let names = Array.init n (Printf.sprintf "b%d") in
      let bytes =
        Array.init n (fun _ ->
            match Rng.int rng 8 with
            | 0 -> 0
            | 1 | 2 -> 8 * (1 + Rng.int rng 2048)
            | 3 | 4 -> (cap / 4) + Rng.int rng cap
            | _ -> cap + Rng.int rng (3 * cap))
      in
      let stream =
        List.init
          (1 + Rng.int rng 60)
          (fun _ ->
            if Rng.int rng 10 = 0 then None
            else
              Some
                (Array.init n (fun _ ->
                     if Rng.int rng 5 < 2 then 0 else 1 + Rng.int rng 20_000)))
      in
      let run jitter =
        let rng () = if jitter then Some (Rng.create ~seed:(seed + 1)) else None in
        let slot = Memsys.create ?rng:(rng ()) machine ~bytes in
        let oracle = Oracles.List_memsys.create ?rng:(rng ()) machine in
        List.for_all
          (fun step ->
            let same_cost =
              match step with
              | None ->
                  Memsys.flush slot;
                  Oracles.List_memsys.flush oracle;
                  true
              | Some touches ->
                  let accesses =
                    List.init n (fun s ->
                        { Oracles.List_memsys.base = names.(s); bytes = bytes.(s);
                          touches = touches.(s) })
                  in
                  Oracles.same_float (Memsys.charge slot touches)
                    (Oracles.List_memsys.charge oracle accesses)
            in
            same_cost
            && Memsys.resident_bytes slot = Oracles.List_memsys.resident_bytes oracle
            && Array.for_all
                 (fun s -> Memsys.is_resident slot s = Oracles.List_memsys.is_resident oracle names.(s))
                 (Array.init n Fun.id))
          stream
      in
      run false && run true)

let prop_noise_positive =
  QCheck.Test.make ~name:"noisy time stays positive" ~count:100
    QCheck.(pair (float_range 0.1 1e6) (int_range 0 10000))
    (fun (cycles, seed) ->
      let rng = Rng.create ~seed in
      let n = Noise.create ~rng Machine.pentium4 in
      let ok = ref true in
      for _ = 1 to 20 do
        if Noise.apply n cycles <= 0.0 then ok := false
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cache_total_accesses;
      prop_memsys_nonnegative;
      prop_memsys_matches_list_model;
      prop_noise_positive;
    ]

let suites =
  [
    ( "machine.cache",
      [
        Alcotest.test_case "cold miss then hit" `Quick test_cache_cold_miss_then_hit;
        Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "flush" `Quick test_cache_flush;
        Alcotest.test_case "stats and miss rate" `Quick test_cache_stats_and_miss_rate;
        Alcotest.test_case "invalid params" `Quick test_cache_invalid_params;
        Alcotest.test_case "working set behaviour" `Quick test_cache_working_set_behaviour;
      ] );
    ( "machine.memsys",
      [
        Alcotest.test_case "cold then warm" `Quick test_memsys_cold_then_warm;
        Alcotest.test_case "warm preconditions" `Quick test_memsys_warm_preconditions;
        Alcotest.test_case "flush" `Quick test_memsys_flush;
        Alcotest.test_case "eviction" `Quick test_memsys_eviction;
        Alcotest.test_case "oversized array" `Quick test_memsys_oversized_array_always_charges;
        Alcotest.test_case "zero touches free" `Quick test_memsys_zero_touch_free;
      ] );
    ( "machine.noise",
      [
        Alcotest.test_case "spike-free bounded" `Quick test_noise_spike_free_bounded;
        Alcotest.test_case "median preserved" `Slow test_noise_mean_preserved;
        Alcotest.test_case "produces outliers" `Slow test_noise_produces_outliers;
        Alcotest.test_case "deterministic" `Quick test_noise_deterministic_under_seed;
      ] );
    ( "machine.cost",
      [
        Alcotest.test_case "monotone in ops" `Quick test_cost_monotone_in_ops;
        Alcotest.test_case "ilp helps" `Quick test_cost_ilp_helps;
        Alcotest.test_case "ilp capped" `Quick test_cost_ilp_capped_by_issue_width;
        Alcotest.test_case "spills expensive" `Quick test_cost_spills_expensive;
        Alcotest.test_case "branch penalty machine dependent" `Quick
          test_cost_branch_penalty_machine_dependent;
        Alcotest.test_case "positive floor" `Quick test_cost_positive;
        Alcotest.test_case "machine lookup" `Quick test_machine_lookup;
        Alcotest.test_case "seconds of cycles" `Quick test_seconds_of_cycles;
      ] );
    ("machine.properties", qcheck_cases);
  ]
