(* Tests for the mini-IR substrate: lowering, interpretation, dataflow. *)

open Peak_ir
module B = Builder

let check_float = Alcotest.(check (float 1e-9))

(* A tuning section mirroring the paper's Figure 2: a loop body component
   with N entries and a tail component with one entry. *)
let figure2_ts =
  B.ts ~name:"figure2" ~params:[ "n" ] ~arrays:[ ("a", 256); ("b", 256) ]
    ~locals:[ "i"; "t" ]
    B.
      [
        for_ "i" ~lo:(ci 0) ~hi:(v "n")
          [ store "a" (v "i") (idx "b" (v "i") + c 1.0) ];
        "t" := idx "a" (ci 0) * c 2.0;
      ]

let run_with ts setup =
  let cfg = Cfg.of_ts ts in
  let env = Interp.make_env ts in
  setup env;
  let result = Interp.run cfg env in
  (cfg, env, result)

(* ------------------------------------------------------------------ *)
(* Expr                                                                *)
(* ------------------------------------------------------------------ *)

let test_expr_eval_arith () =
  let ts = B.ts ~name:"t" ~params:[ "x"; "y" ] [] in
  let env = Interp.make_env ts in
  Interp.set_scalar env "x" 3.0;
  Interp.set_scalar env "y" 4.0;
  check_float "add" 7.0 (Interp.eval env B.(v "x" + v "y"));
  check_float "mul" 12.0 (Interp.eval env B.(v "x" * v "y"));
  check_float "cmp true" 1.0 (Interp.eval env B.(v "x" < v "y"));
  check_float "cmp false" 0.0 (Interp.eval env B.(v "x" > v "y"));
  check_float "min" 3.0 (Interp.eval env B.(min_ (v "x") (v "y")));
  check_float "sqrt" 2.0 (Interp.eval env B.(sqrt_ (c 4.0)));
  check_float "not" 0.0 (Interp.eval env B.(not_ (c 5.0)))

let test_expr_const_fold () =
  let folded = Expr.const_fold B.(c 2.0 + (c 3.0 * c 4.0)) in
  Alcotest.(check bool) "fully folded" true (folded = B.c 14.0);
  (* division by zero must not be folded *)
  let dz = Expr.const_fold B.(c 1.0 / c 0.0) in
  Alcotest.(check bool) "div by zero unfolded" true (not (Expr.is_const dz));
  (* folding under a variable context *)
  let partial = Expr.const_fold B.(v "x" + (c 1.0 + c 2.0)) in
  Alcotest.(check bool) "partial" true (partial = B.(v "x" + c 3.0))

let test_expr_sources () =
  let e = B.(idx "a" (v "i") + (deref "p" * idx "b" (ci 3))) in
  let srcs = Expr.sources e in
  Alcotest.(check bool) "array elem var subscript" true
    (List.mem (Expr.Array_elem ("a", None)) srcs);
  Alcotest.(check bool) "array elem const subscript" true
    (List.mem (Expr.Array_elem ("b", Some 3)) srcs);
  Alcotest.(check bool) "pointer" true (List.mem (Expr.Pointer_deref "p") srcs);
  Alcotest.(check bool) "subscript var" true (List.mem (Expr.Scalar "i") srcs)

let test_expr_scalar_uses () =
  let e = B.(idx "a" (v "i") + v "x" + deref "p") in
  let uses = Expr.scalar_uses e in
  Alcotest.(check (list string)) "uses" [ "i"; "x"; "p" ] uses

(* ------------------------------------------------------------------ *)
(* Cfg lowering + Interp                                               *)
(* ------------------------------------------------------------------ *)

let test_loop_trip_count () =
  let _, env, result = run_with figure2_ts (fun env -> Interp.set_scalar env "n" 10.0) in
  (* body executed 10 times: find a block with count exactly 10 that is
     not the header (header runs 11 times) *)
  Alcotest.(check bool) "some block entered 10 times" true
    (Array.exists (fun c -> c = 10) result.block_counts);
  Alcotest.(check bool) "header entered 11 times" true
    (Array.exists (fun c -> c = 11) result.block_counts);
  check_float "a[0] = b[0]+1" 1.0 (Interp.get_array env "a").(0)

let test_zero_trip_loop () =
  let _, _, result = run_with figure2_ts (fun env -> Interp.set_scalar env "n" 0.0) in
  (* header once, body zero times *)
  Alcotest.(check bool) "no block ran 0<n times" true
    (Array.for_all (fun c -> c <= 1) result.block_counts)

let test_for_limit_evaluated_on_entry () =
  (* body increments n; the trip count must still be the entry value *)
  let ts =
    B.ts ~name:"limit" ~params:[ "n" ] ~locals:[ "i"; "acc" ]
      B.
        [
          "acc" := ci 0;
          for_ "i" ~lo:(ci 0) ~hi:(v "n")
            [ "n" := v "n" + ci 1; "acc" := v "acc" + ci 1 ];
        ]
  in
  let _, env, _ = run_with ts (fun env -> Interp.set_scalar env "n" 5.0) in
  check_float "five iterations despite n growing" 5.0 (Interp.get_scalar env "acc");
  check_float "n was mutated" 10.0 (Interp.get_scalar env "n")

let test_if_both_sides () =
  let ts =
    B.ts ~name:"branch" ~params:[ "x" ] ~locals:[ "r" ]
      B.[ if_ (v "x" > c 0.0) [ "r" := c 1.0 ] [ "r" := c 2.0 ] ]
  in
  let _, env, _ = run_with ts (fun env -> Interp.set_scalar env "x" 5.0) in
  check_float "then side" 1.0 (Interp.get_scalar env "r");
  let _, env, _ = run_with ts (fun env -> Interp.set_scalar env "x" (-5.0)) in
  check_float "else side" 2.0 (Interp.get_scalar env "r")

let test_while_loop () =
  let ts =
    B.ts ~name:"collatz_steps" ~params:[ "x" ] ~locals:[ "steps" ]
      B.
        [
          "steps" := ci 0;
          while_
            (v "x" > c 1.0)
            [
              if_
                (v "x" % c 2.0 = c 0.0)
                [ "x" := v "x" / c 2.0 ]
                [ "x" := (c 3.0 * v "x") + c 1.0 ];
              "steps" := v "steps" + ci 1;
            ];
        ]
  in
  let _, env, _ = run_with ts (fun env -> Interp.set_scalar env "x" 6.0) in
  (* 6 -> 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1 : 8 steps *)
  check_float "collatz(6)" 8.0 (Interp.get_scalar env "steps")

let test_pointer_ops () =
  let ts =
    B.ts ~name:"ptr" ~params:[ "x"; "y" ] ~pointers:[ ("p", "x") ] ~locals:[ "r" ]
      B.[ "r" := deref "p" + c 1.0; ptr_set "p" "y"; ptr_store "p" (c 42.0) ]
  in
  let _, env, _ =
    run_with ts (fun env ->
        Interp.set_scalar env "x" 10.0;
        Interp.set_scalar env "y" 0.0)
  in
  check_float "deref initial target" 11.0 (Interp.get_scalar env "r");
  check_float "store through retargeted ptr" 42.0 (Interp.get_scalar env "y");
  check_float "x untouched by ptr store" 10.0 (Interp.get_scalar env "x")

let test_out_of_bounds () =
  let ts =
    B.ts ~name:"oob" ~params:[ "i" ] ~arrays:[ ("a", 4) ] ~locals:[ "r" ]
      B.[ "r" := idx "a" (v "i") ]
  in
  let cfg = Cfg.of_ts ts in
  let env = Interp.make_env ts in
  Interp.set_scalar env "i" 9.0;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Interp.run cfg env);
       false
     with Interp.Out_of_bounds _ -> true)

let test_step_limit () =
  let ts = B.ts ~name:"inf" ~params:[] ~locals:[] B.[ while_ (c 1.0) [ nop ] ] in
  let cfg = Cfg.of_ts ts in
  let env = Interp.make_env ts in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Interp.run ~max_steps:1000 cfg env);
       false
     with Interp.Step_limit_exceeded _ -> true)

let test_negative_index_rejected () =
  (* both the read and the write path must reject negative fractional
     subscripts: int_of_float truncation toward zero used to turn -0.9
     into index 0 silently *)
  let read_ts =
    B.ts ~name:"oob_read" ~params:[ "i" ] ~arrays:[ ("a", 4) ] ~locals:[ "r" ]
      B.[ "r" := idx "a" (v "i") ]
  in
  let write_ts =
    B.ts ~name:"oob_write" ~params:[ "i" ] ~arrays:[ ("a", 4) ]
      B.[ store "a" (v "i") (c 1.0) ]
  in
  let raises ts i =
    let cfg = Cfg.of_ts ts in
    let env = Interp.make_env ts in
    Interp.set_scalar env "i" i;
    try
      ignore (Interp.run cfg env);
      false
    with Interp.Out_of_bounds _ -> true
  in
  List.iter
    (fun ts ->
      List.iter
        (fun i -> Alcotest.(check bool) (Printf.sprintf "i=%g in bounds" i) false (raises ts i))
        [ 0.0; 0.9; 3.0; 3.9 ];
      List.iter
        (fun i -> Alcotest.(check bool) (Printf.sprintf "i=%g rejected" i) true (raises ts i))
        [ -0.9; -1.0; 4.0 ])
    [ read_ts; write_ts ]

let test_sorted_array_accesses () =
  (* touch slots follow base names, not the order the section touches
     them in *)
  let ts =
    B.ts ~name:"acc" ~params:[] ~arrays:[ ("zz", 2); ("mm", 2); ("aa", 2) ] ~locals:[ "r" ]
      B.
        [
          store "zz" (ci 0) (c 1.0);
          "r" := idx "mm" (ci 0) + idx "zz" (ci 0) + idx "aa" (ci 1);
        ]
  in
  let cfg = Cfg.of_ts ts in
  let env = Interp.make_env ts in
  let r = Interp.run cfg env in
  Alcotest.(check (array string)) "bases sorted by name" [| "aa"; "mm"; "zz" |] (Interp.bases cfg);
  Alcotest.(check (array int)) "touches by base slot" [| 1; 1; 2 |] r.Interp.touches

let test_dynamic_counters () =
  let _, _, result = run_with figure2_ts (fun env -> Interp.set_scalar env "n" 8.0) in
  (* a: written each iteration and read once in the tail; b: read each
     iteration *)
  Alcotest.(check (array string)) "bases" [| "a"; "b" |] (Interp.bases (Cfg.of_ts figure2_ts));
  Alcotest.(check (array int)) "touched a and b" [| 9; 8 |] result.touches

let test_copy_env_isolation () =
  let ts = figure2_ts in
  let env = Interp.make_env ts in
  Interp.set_scalar env "n" 3.0;
  let snapshot = Interp.copy_env env in
  let cfg = Cfg.of_ts ts in
  ignore (Interp.run cfg env);
  (* the snapshot's arrays must be unchanged *)
  check_float "snapshot a[0]" 0.0 (Interp.get_array snapshot "a").(0);
  Alcotest.(check bool) "run mutated original" true ((Interp.get_array env "a").(0) = 1.0)

let test_control_conditions () =
  let cfg = Cfg.of_ts figure2_ts in
  let conds = Cfg.control_conditions cfg in
  Alcotest.(check int) "one control statement (loop header)" 1 (List.length conds)

let test_loop_depth_marking () =
  let ts =
    B.ts ~name:"nest" ~params:[ "n" ] ~locals:[ "i"; "j"; "s" ]
      B.
        [
          for_ "i" ~lo:(ci 0) ~hi:(v "n")
            [ for_ "j" ~lo:(ci 0) ~hi:(v "n") [ "s" := v "s" + ci 1 ] ];
        ]
  in
  let cfg = Cfg.of_ts ts in
  let depths = Array.map (fun b -> b.Cfg.loop_depth) cfg.blocks in
  Alcotest.(check bool) "some block at depth 2" true (Array.exists (fun d -> d = 2) depths);
  let feats = Features.of_cfg cfg in
  Alcotest.(check int) "two loops" 2 feats.n_loops

(* ------------------------------------------------------------------ *)
(* Pointsto                                                            *)
(* ------------------------------------------------------------------ *)

let test_pointsto_basic () =
  let ts =
    B.ts ~name:"pts" ~params:[ "x"; "y" ] ~pointers:[ ("p", "x"); ("q", "y") ] ~locals:[ "r" ]
      B.[ "r" := deref "p"; ptr_set "p" "y"; ptr_store "q" (c 1.0) ]
  in
  let cfg = Cfg.of_ts ts in
  let pts = Pointsto.analyze cfg in
  Alcotest.(check bool) "p retargeted" true (Pointsto.is_retargeted pts "p");
  Alcotest.(check bool) "q not retargeted" false (Pointsto.is_retargeted pts "q");
  Alcotest.(check bool) "p may point to x" true (List.mem "x" (Pointsto.targets pts "p"));
  Alcotest.(check bool) "p may point to y" true (List.mem "y" (Pointsto.targets pts "p"));
  Alcotest.(check bool) "q written through" true (Pointsto.pointee_written pts "q");
  Alcotest.(check bool) "p not written through" false (Pointsto.pointee_written pts "p")

let test_pointsto_direct_write_to_pointee () =
  let ts =
    B.ts ~name:"pts2" ~params:[ "x" ] ~pointers:[ ("p", "x") ] ~locals:[ "r" ]
      B.[ "x" := c 5.0; "r" := deref "p" ]
  in
  let cfg = Cfg.of_ts ts in
  let pts = Pointsto.analyze cfg in
  Alcotest.(check bool) "pointee written directly" true (Pointsto.pointee_written pts "p")

(* ------------------------------------------------------------------ *)
(* Defuse                                                              *)
(* ------------------------------------------------------------------ *)

let find_stmt cfg pred =
  let found = ref None in
  Array.iter
    (fun (b : Cfg.bblock) ->
      Array.iteri (fun i s -> if !found = None && pred s then found := Some (b.id, i)) b.stmts)
    cfg.Cfg.blocks;
  match !found with Some x -> x | None -> Alcotest.fail "statement not found"

let test_reaching_param_from_entry () =
  let ts = B.ts ~name:"rd" ~params:[ "x" ] ~locals:[ "y" ] B.[ "y" := v "x" + c 1.0 ] in
  let cfg = Cfg.of_ts ts in
  let du = Defuse.analyze cfg (Pointsto.analyze cfg) in
  let b, i = find_stmt cfg (function Cfg.SAssign ("y", _) -> true | _ -> false) in
  let defs = Defuse.reaching du (Defuse.Stmt (b, i)) (Loc.Scalar "x") in
  Alcotest.(check bool) "param reaches from entry" true (defs = [ Defuse.Entry ])

let test_reaching_local_def () =
  let ts =
    B.ts ~name:"rd2" ~params:[ "x" ] ~locals:[ "y"; "z" ]
      B.[ "y" := v "x"; "z" := v "y" ]
  in
  let cfg = Cfg.of_ts ts in
  let du = Defuse.analyze cfg (Pointsto.analyze cfg) in
  let b, i = find_stmt cfg (function Cfg.SAssign ("z", _) -> true | _ -> false) in
  match Defuse.reaching du (Defuse.Stmt (b, i)) (Loc.Scalar "y") with
  | [ Defuse.At (_, _) ] -> ()
  | other ->
      Alcotest.failf "expected single local def, got %d defs incl entry=%b" (List.length other)
        (List.mem Defuse.Entry other)

let test_reaching_after_branch_merges () =
  let ts =
    B.ts ~name:"rd3" ~params:[ "c" ] ~locals:[ "y"; "z" ]
      B.
        [
          if_ (v "c" > c 0.0) [ "y" := c 1.0 ] [ "y" := c 2.0 ];
          "z" := v "y";
        ]
  in
  let cfg = Cfg.of_ts ts in
  let du = Defuse.analyze cfg (Pointsto.analyze cfg) in
  let b, i = find_stmt cfg (function Cfg.SAssign ("z", _) -> true | _ -> false) in
  let defs = Defuse.reaching du (Defuse.Stmt (b, i)) (Loc.Scalar "y") in
  Alcotest.(check int) "both branch defs reach" 2 (List.length defs);
  Alcotest.(check bool) "entry killed on both paths" true (not (List.mem Defuse.Entry defs))

let test_array_defs_are_weak () =
  let ts =
    B.ts ~name:"rd4" ~params:[ "i" ] ~arrays:[ ("a", 8) ] ~locals:[ "z" ]
      B.[ store "a" (v "i") (c 1.0); "z" := idx "a" (ci 0) ]
  in
  let cfg = Cfg.of_ts ts in
  let du = Defuse.analyze cfg (Pointsto.analyze cfg) in
  let b, i = find_stmt cfg (function Cfg.SAssign ("z", _) -> true | _ -> false) in
  let defs = Defuse.reaching du (Defuse.Stmt (b, i)) (Loc.Array "a") in
  Alcotest.(check bool) "entry def still visible through weak store" true
    (List.mem Defuse.Entry defs);
  Alcotest.(check int) "store def also visible" 2 (List.length defs)

let test_loop_carried_def_reaches_header () =
  let ts =
    B.ts ~name:"rd5" ~params:[ "n" ] ~locals:[ "i"; "s" ]
      B.[ for_ "i" ~lo:(ci 0) ~hi:(v "n") [ "s" := v "s" + v "i" ] ]
  in
  let cfg = Cfg.of_ts ts in
  let du = Defuse.analyze cfg (Pointsto.analyze cfg) in
  (* at the loop-header branch, defs of i include both the init and the
     increment *)
  let header =
    Array.to_list cfg.blocks
    |> List.find (fun (b : Cfg.bblock) -> match b.term with Cfg.Branch _ -> true | _ -> false)
  in
  let defs = Defuse.reaching du (Defuse.Term header.id) (Loc.Scalar "i") in
  Alcotest.(check int) "init + increment defs" 2 (List.length defs)

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

let liveness_of ts =
  let cfg = Cfg.of_ts ts in
  Liveness.analyze cfg (Pointsto.analyze cfg)

let test_input_set () =
  let lv = liveness_of figure2_ts in
  let input = Liveness.live_in_entry lv in
  Alcotest.(check bool) "n is input" true (Loc.Set.mem (Loc.Scalar "n") input);
  Alcotest.(check bool) "b is input" true (Loc.Set.mem (Loc.Array "b") input);
  (* a is written before the tail read a[0]... a[0] is only written when
     n > 0; conservatively a is input since the read may see the entry
     value when n = 0 *)
  Alcotest.(check bool) "a is (conservatively) input" true (Loc.Set.mem (Loc.Array "a") input);
  Alcotest.(check bool) "locals are not inputs" true
    (not (Loc.Set.mem (Loc.Scalar "t") input))

let test_def_set_and_modified_input () =
  let lv = liveness_of figure2_ts in
  let defs = Liveness.def_set lv in
  Alcotest.(check bool) "a defined" true (Loc.Set.mem (Loc.Array "a") defs);
  Alcotest.(check bool) "t defined" true (Loc.Set.mem (Loc.Scalar "t") defs);
  Alcotest.(check bool) "b not defined" false (Loc.Set.mem (Loc.Array "b") defs);
  let mi = Liveness.modified_input lv in
  Alcotest.(check bool) "modified input contains a" true (Loc.Set.mem (Loc.Array "a") mi);
  Alcotest.(check bool) "modified input excludes b" false (Loc.Set.mem (Loc.Array "b") mi);
  Alcotest.(check bool) "modified input excludes n" false (Loc.Set.mem (Loc.Scalar "n") mi)

let test_write_only_scalar_not_input () =
  let ts =
    B.ts ~name:"wo" ~params:[ "x"; "y" ] ~locals:[]
      B.[ "x" := v "y" + c 1.0 ]
  in
  let lv = liveness_of ts in
  let input = Liveness.live_in_entry lv in
  Alcotest.(check bool) "y input" true (Loc.Set.mem (Loc.Scalar "y") input);
  Alcotest.(check bool) "x not input" false (Loc.Set.mem (Loc.Scalar "x") input);
  Alcotest.(check bool) "x in defs" true (Loc.Set.mem (Loc.Scalar "x") (Liveness.def_set lv))

let test_modified_region_constant_stores () =
  let ts =
    B.ts ~name:"region" ~params:[ "x" ] ~arrays:[ ("a", 100) ] ~locals:[ "r" ]
      B.[ "r" := idx "a" (ci 0); store "a" (ci 0) (v "x"); store "a" (ci 1) (v "x") ]
  in
  let lv = liveness_of ts in
  (match Liveness.modified_region lv (Loc.Array "a") with
  | Liveness.Cells cells -> Alcotest.(check int) "two cells" 2 (List.length cells)
  | Liveness.Whole | Liveness.Span _ | Liveness.Union _ -> Alcotest.fail "expected cell region");
  (* save bytes: just the two cells *)
  Alcotest.(check int) "bytes" 16 (Liveness.save_restore_bytes lv)

let test_modified_region_loop_span () =
  (* figure2 stores a.(i) under for i in [0, n): the symbolic range
     analysis produces the span [0, n) rather than the whole array *)
  let lv = liveness_of figure2_ts in
  (match Liveness.modified_region lv (Loc.Array "a") with
  | Liveness.Span (lo, hi) ->
      Alcotest.(check bool) "lo = 0" true (Expr.const_fold lo = Types.Const 0.0);
      Alcotest.(check bool) "hi = n" true (hi = Types.Var "n")
  | Liveness.Whole | Liveness.Cells _ | Liveness.Union _ ->
      Alcotest.fail "expected a symbolic span");
  (* static bound: n is not a compile-time constant, so the whole array *)
  Alcotest.(check int) "static bytes bound" (256 * 8) (Liveness.save_restore_bytes lv)

let test_rangean_classification () =
  let regions ts = Rangean.store_regions ts in
  (* subscript index+const shifts the span *)
  let shifted =
    B.ts ~name:"shift" ~params:[ "n" ] ~arrays:[ ("a", 64) ] ~locals:[ "i" ]
      B.[ for_ "i" ~lo:(ci 2) ~hi:(v "n") [ store "a" (v "i" - ci 1) (c 1.0) ] ]
  in
  (match Rangean.region_of (regions shifted) "a" with
  | Rangean.Span (lo, hi) ->
      Alcotest.(check bool) "lo folded to 1" true (Expr.const_fold lo = Types.Const 1.0);
      Alcotest.(check bool) "hi = n + (-1)" true
        (Expr.const_fold hi = Types.Binop (Types.Add, Types.Var "n", Types.Const (-1.0)))
  | _ -> Alcotest.fail "expected shifted span");
  (* a bound mutated inside the TS is not invariant *)
  let mutated_bound =
    B.ts ~name:"mut" ~params:[ "n" ] ~arrays:[ ("a", 64) ] ~locals:[ "i" ]
      B.
        [
          for_ "i" ~lo:(ci 0) ~hi:(v "n") [ store "a" (v "i") (c 1.0); "n" := v "n" - ci 1 ];
        ]
  in
  (match Rangean.region_of (regions mutated_bound) "a" with
  | Rangean.Whole -> ()
  | _ -> Alcotest.fail "mutated bound must defeat the span");
  (* data-dependent subscript: whole *)
  let indirect =
    B.ts ~name:"ind" ~params:[ "n" ] ~arrays:[ ("a", 64); ("idxs", 64) ] ~locals:[ "i" ]
      B.[ for_ "i" ~lo:(ci 0) ~hi:(v "n") [ store "a" (idx "idxs" (v "i")) (c 1.0) ] ]
  in
  (match Rangean.region_of (regions indirect) "a" with
  | Rangean.Whole -> ()
  | _ -> Alcotest.fail "indirect subscript must be Whole");
  (* two stores under the same loop bounds keep the span *)
  let two_stores =
    B.ts ~name:"two" ~params:[ "n" ] ~arrays:[ ("a", 64) ] ~locals:[ "i" ]
      B.
        [
          for_ "i" ~lo:(ci 0) ~hi:(v "n")
            [ store "a" (v "i") (c 1.0); store "a" (v "i") (c 2.0) ];
        ]
  in
  match Rangean.region_of (regions two_stores) "a" with
  | Rangean.Span _ -> ()
  | _ -> Alcotest.fail "same-bounds stores should keep the span"

(* ------------------------------------------------------------------ *)
(* Features                                                            *)
(* ------------------------------------------------------------------ *)

let test_features_counts () =
  let ts =
    B.ts ~name:"feat" ~params:[ "x"; "y" ] ~arrays:[ ("a", 8) ] ~locals:[ "r"; "s" ]
      B.
        [
          "r" := (v "x" * v "y") + (v "x" * v "y");
          "s" := idx "a" (ci 0) + v "r";
        ]
  in
  let cfg = Cfg.of_ts ts in
  let feats = Features.of_cfg cfg in
  (* single straightline block *)
  let b = feats.blocks.(cfg.entry) in
  Alcotest.(check int) "muldiv" 2 b.Features.muldiv;
  Alcotest.(check bool) "redundant x*y detected" true (b.Features.redundancy >= 1);
  Alcotest.(check int) "mem reads" 1 b.Features.mem_read;
  Alcotest.(check int) "mem writes" 0 b.Features.mem_write;
  Alcotest.(check bool) "pressure counts distinct scalars" true (b.Features.pressure >= 4)

let test_features_alias_pairs () =
  let ts =
    B.ts ~name:"alias" ~params:[ "i" ] ~arrays:[ ("a", 8); ("b", 8) ] ~locals:[ "r" ]
      B.[ "r" := idx "a" (v "i") + idx "b" (v "i") ]
  in
  let feats = Features.of_cfg (Cfg.of_ts ts) in
  Alcotest.(check int) "one ambiguous pair" 1 feats.alias_pairs

let test_features_loop_header_flag () =
  let cfg = Cfg.of_ts figure2_ts in
  let feats = Features.of_cfg cfg in
  let headers =
    Array.to_list feats.blocks |> List.filter (fun b -> b.Features.is_loop_header)
  in
  Alcotest.(check int) "one header" 1 (List.length headers);
  Alcotest.(check bool) "header has branch" true (List.hd headers).Features.has_branch

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let prop_trip_count =
  QCheck.Test.make ~name:"for-loop trip count is max(0, hi-lo)" ~count:100
    QCheck.(pair (int_range (-5) 40) (int_range (-5) 40))
    (fun (lo, hi) ->
      let ts =
        B.ts ~name:"trip" ~params:[ "lo"; "hi" ] ~locals:[ "i"; "cnt" ]
          B.
            [
              "cnt" := ci 0;
              for_ "i" ~lo:(v "lo") ~hi:(v "hi") [ "cnt" := v "cnt" + ci 1 ];
            ]
      in
      let cfg = Cfg.of_ts ts in
      let env = Interp.make_env ts in
      Interp.set_scalar env "lo" (float_of_int lo);
      Interp.set_scalar env "hi" (float_of_int hi);
      ignore (Interp.run cfg env);
      int_of_float (Interp.get_scalar env "cnt") = max 0 (hi - lo))

(* random expression trees over a fixed env *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun k -> Types.Const (float_of_int k)) (int_range (-10) 10);
        oneofl [ Types.Var "x"; Types.Var "y" ];
      ]
  in
  let rec tree n =
    if n = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op a b -> Types.Binop (op, a, b))
              (oneofl Types.[ Add; Sub; Mul; Min; Max ])
              (tree (n - 1)) (tree (n - 1)) );
          ( 1,
            map3
              (fun op a b -> Types.Cmp (op, a, b))
              (oneofl Types.[ Eq; Lt; Le; Gt ])
              (tree (n - 1)) (tree (n - 1)) );
          (1, map (fun e -> Types.Unop (Types.Neg, e)) (tree (n - 1)));
        ]
  in
  tree 4

let prop_const_fold_preserves_eval =
  QCheck.Test.make ~name:"const_fold preserves evaluation" ~count:300
    (QCheck.make ~print:Expr.to_string gen_expr)
    (fun e ->
      let ts = B.ts ~name:"cf" ~params:[ "x"; "y" ] [] in
      let env = Interp.make_env ts in
      Interp.set_scalar env "x" 3.5;
      Interp.set_scalar env "y" (-2.25);
      let a = Interp.eval env e in
      let b = Interp.eval env (Expr.const_fold e) in
      (Float.is_nan a && Float.is_nan b) || abs_float (a -. b) <= 1e-9 *. (1.0 +. abs_float a))

let prop_interp_deterministic =
  QCheck.Test.make ~name:"interpretation is deterministic" ~count:50
    QCheck.(int_range 0 30)
    (fun n ->
      let run () =
        let cfg = Cfg.of_ts figure2_ts in
        let env = Interp.make_env figure2_ts in
        Interp.set_scalar env "n" (float_of_int n);
        let r = Interp.run cfg env in
        (r.block_counts, r.touches)
      in
      run () = run ())

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_trip_count; prop_const_fold_preserves_eval; prop_interp_deterministic ]

(* ---------------- handles ---------------- *)

let handle_ts =
  B.ts ~name:"handles" ~params:[ "x" ] ~arrays:[ ("a", 4) ] ~pointers:[ ("p", "x") ]
    ~locals:[] []

(* One handle on two environments reads and writes each one's own slot:
   the second env interns its names in another order, so a slot kept
   from the first would land on the wrong name. *)
let test_handle_two_envs () =
  let e1 = Interp.make_env handle_ts in
  let e2 = Interp.make_env handle_ts in
  Interp.set_scalar e2 "zz" 1.0;
  Interp.set_scalar e2 "yy" 2.0;
  let h = Interp.handle "yy" in
  Interp.set_handle h e1 10.0;
  Interp.set_handle h e2 20.0;
  Interp.set_handle h e1 11.0;
  Alcotest.(check (float 0.0)) "env 1" 11.0 (Interp.get_scalar e1 "yy");
  Alcotest.(check (float 0.0)) "env 2" 20.0 (Interp.get_scalar e2 "yy");
  Alcotest.(check (float 0.0)) "env 2 neighbour untouched" 1.0 (Interp.get_scalar e2 "zz");
  Alcotest.(check (float 0.0)) "read env 2" 20.0 (Interp.get_handle h e2);
  (* a copy is another environment: writes through the handle stay in it *)
  let e3 = Interp.copy_env e1 in
  Interp.set_handle h e3 33.0;
  Alcotest.(check (float 0.0)) "copy written" 33.0 (Interp.get_scalar e3 "yy");
  Alcotest.(check (float 0.0)) "original kept" 11.0 (Interp.get_handle h e1);
  let a = Interp.array_handle "a" in
  (Interp.get_array_handle a e1).(2) <- 5.0;
  Alcotest.(check (float 0.0)) "array of env 2 untouched" 0.0 (Interp.get_array_handle a e2).(2);
  Alcotest.(check (float 0.0)) "array of env 1" 5.0 (Interp.get_array e1 "a").(2)

(* A handle write to an undeclared name binds it, as [set_scalar] does;
   a handle read of an unknown name raises what [get_scalar] raises. *)
let test_handle_binds_undeclared () =
  let env = Interp.make_env handle_ts in
  let h = Interp.handle "fresh" in
  Alcotest.check_raises "unbound read" (Interp.Out_of_bounds "unknown scalar fresh") (fun () ->
      ignore (Interp.get_handle h env));
  Interp.set_handle h env 4.5;
  Alcotest.(check (float 0.0)) "bound by the write" 4.5 (Interp.get_scalar env "fresh");
  Alcotest.(check (float 0.0)) "read back" 4.5 (Interp.get_handle h env);
  Alcotest.check_raises "unknown array" (Interp.Out_of_bounds "unknown array b") (fun () ->
      ignore (Interp.get_array_handle (Interp.array_handle "b") env))

(* A source handle reads what the string-keyed [Oracles.read_source]
   reads, raising alike and writing nothing when it raises. *)
let test_source_handles () =
  let env = Interp.make_env handle_ts in
  Interp.set_scalar env "x" 7.0;
  (Interp.get_array env "a").(1) <- 3.0;
  let dst = Array.make 4 0.0 in
  List.iteri
    (fun i src ->
      let h = Interp.source_handle src in
      Alcotest.(check bool) "keeps its source" true (Interp.handle_source h = src);
      Interp.read_handle_into h env dst i;
      Alcotest.(check (float 0.0)) "value" (Oracles.read_source env src) dst.(i))
    Expr.[ Scalar "x"; Array_elem ("a", Some 1); Pointer_deref "p" ];
  List.iter
    (fun src ->
      let expected =
        try ignore (Oracles.read_source env src); "" with Interp.Out_of_bounds m -> m
      in
      dst.(0) <- 42.0;
      let got =
        try Interp.read_handle_into (Interp.source_handle src) env dst 0; ""
        with Interp.Out_of_bounds m -> m
      in
      Alcotest.(check string) "same error" expected got;
      Alcotest.(check bool) "raised" true (got <> "");
      Alcotest.(check (float 0.0)) "wrote nothing" 42.0 dst.(0))
    Expr.[ Scalar "nope"; Array_elem ("a", Some 4); Array_elem ("a", None); Pointer_deref "q" ]

let suites =
  [
    ( "ir.expr",
      [
        Alcotest.test_case "arith eval" `Quick test_expr_eval_arith;
        Alcotest.test_case "const fold" `Quick test_expr_const_fold;
        Alcotest.test_case "sources" `Quick test_expr_sources;
        Alcotest.test_case "scalar uses" `Quick test_expr_scalar_uses;
      ] );
    ( "ir.interp",
      [
        Alcotest.test_case "loop trip count" `Quick test_loop_trip_count;
        Alcotest.test_case "zero-trip loop" `Quick test_zero_trip_loop;
        Alcotest.test_case "for limit on entry" `Quick test_for_limit_evaluated_on_entry;
        Alcotest.test_case "if both sides" `Quick test_if_both_sides;
        Alcotest.test_case "while loop" `Quick test_while_loop;
        Alcotest.test_case "pointer ops" `Quick test_pointer_ops;
        Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
        Alcotest.test_case "step limit" `Quick test_step_limit;
        Alcotest.test_case "negative index rejected" `Quick test_negative_index_rejected;
        Alcotest.test_case "sorted array accesses" `Quick test_sorted_array_accesses;
        Alcotest.test_case "dynamic counters" `Quick test_dynamic_counters;
        Alcotest.test_case "copy env isolation" `Quick test_copy_env_isolation;
        Alcotest.test_case "control conditions" `Quick test_control_conditions;
        Alcotest.test_case "loop depth marking" `Quick test_loop_depth_marking;
        Alcotest.test_case "one handle on two envs" `Quick test_handle_two_envs;
        Alcotest.test_case "handle binds an undeclared name" `Quick test_handle_binds_undeclared;
        Alcotest.test_case "source handles read like read_source" `Quick test_source_handles;
      ] );
    ( "ir.pointsto",
      [
        Alcotest.test_case "basic" `Quick test_pointsto_basic;
        Alcotest.test_case "direct write to pointee" `Quick test_pointsto_direct_write_to_pointee;
      ] );
    ( "ir.defuse",
      [
        Alcotest.test_case "param from entry" `Quick test_reaching_param_from_entry;
        Alcotest.test_case "local def" `Quick test_reaching_local_def;
        Alcotest.test_case "branch merge" `Quick test_reaching_after_branch_merges;
        Alcotest.test_case "array defs weak" `Quick test_array_defs_are_weak;
        Alcotest.test_case "loop carried defs" `Quick test_loop_carried_def_reaches_header;
      ] );
    ( "ir.liveness",
      [
        Alcotest.test_case "input set" `Quick test_input_set;
        Alcotest.test_case "def and modified input" `Quick test_def_set_and_modified_input;
        Alcotest.test_case "write-only not input" `Quick test_write_only_scalar_not_input;
        Alcotest.test_case "region constant stores" `Quick test_modified_region_constant_stores;
        Alcotest.test_case "region loop span" `Quick test_modified_region_loop_span;
        Alcotest.test_case "rangean classification" `Quick test_rangean_classification;
      ] );
    ( "ir.features",
      [
        Alcotest.test_case "counts" `Quick test_features_counts;
        Alcotest.test_case "alias pairs" `Quick test_features_alias_pairs;
        Alcotest.test_case "loop header flag" `Quick test_features_loop_header_flag;
      ] );
    ("ir.properties", qcheck_cases);
  ]
