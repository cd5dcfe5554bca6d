(* Differential testing of the compiled (slot-resolved) interpreter
   against the string-keyed reference interpreter.

   [Oracles.Reference_interp] is the original hashtable implementation
   kept as an executable specification; the compiled path must be
   observably identical on every program: block counts, dynamic
   counters, the touch counts per base (numbered by [Interp.bases], which
   the reference checks covers every base it touched), final environment
   state over declared names, and the exception (constructor and
   message) on failing runs. *)

open Peak_ir
module B = Builder

(* The fixed declaration frame every generated program runs in. *)
let scalars = [ "x"; "y"; "n"; "i"; "j"; "r"; "s" ]
let array_names = [ "a"; "b" ]
let array_len = 8

let make_ts body =
  B.ts ~name:"gen" ~params:[ "x"; "y"; "n" ]
    ~arrays:(List.map (fun a -> (a, array_len)) array_names)
    ~pointers:[ ("p", "x") ] ~locals:[ "i"; "j"; "r"; "s" ] body

let input_array name = Array.init array_len (fun k ->
    match name with
    | "a" -> float_of_int k *. 0.5
    | _ -> float_of_int (7 - k))

(* Everything an invocation can observably do.  Compared with [compare]
   so NaN results (division by zero, sqrt of negatives) count as equal
   when both sides produce them. *)
type outcome =
  | Finished of {
      counts : int array;
      reads : int;
      writes : int;
      flops : int;
      touches : int array;
      calls : int;
      final_scalars : (string * float) list;
      final_arrays : (string * float array) list;
      final_pointer : string;
    }
  | Oob of string
  | Limit of string

let finished (r : Interp.result) final_scalars final_arrays final_pointer =
  Finished
    {
      counts = r.Interp.block_counts;
      reads = r.Interp.mem_reads;
      writes = r.Interp.mem_writes;
      flops = r.Interp.flops;
      touches = r.Interp.touches;
      calls = r.Interp.impure_calls;
      final_scalars;
      final_arrays;
      final_pointer;
    }

let compiled_outcome ?max_steps ts n =
  let cfg = Cfg.of_ts ts in
  let env = Interp.make_env ts in
  Interp.set_scalar env "x" 3.0;
  Interp.set_scalar env "y" (-2.0);
  Interp.set_scalar env "n" (float_of_int n);
  List.iter (fun a -> Interp.set_array env a (input_array a)) array_names;
  match Interp.run ?max_steps cfg env with
  | r ->
      finished r
        (List.map (fun s -> (s, Interp.get_scalar env s)) scalars)
        (List.map (fun a -> (a, Interp.get_array env a)) array_names)
        (Interp.get_pointer env "p")
  | exception Interp.Out_of_bounds m -> Oob m
  | exception Interp.Step_limit_exceeded m -> Limit m

let reference_outcome ?max_steps ts n =
  let module R = Oracles.Reference_interp in
  let cfg = Cfg.of_ts ts in
  let env = R.make_env ts in
  R.set_scalar env "x" 3.0;
  R.set_scalar env "y" (-2.0);
  R.set_scalar env "n" (float_of_int n);
  List.iter (fun a -> R.set_array env a (input_array a)) array_names;
  match R.run ?max_steps cfg env with
  | r ->
      finished r
        (List.map (fun s -> (s, R.get_scalar env s)) scalars)
        (List.map (fun a -> (a, R.get_array env a)) array_names)
        (R.get_pointer env "p")
  | exception Interp.Out_of_bounds m -> Oob m
  | exception Interp.Step_limit_exceeded m -> Limit m

(* ------------------------------------------------------------------ *)
(* Program generator                                                   *)
(* ------------------------------------------------------------------ *)

let gen_expr =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (* halves cover fractional and negative constants; the range
           reaches past the array extent so subscripts go out of bounds *)
        (3, map (fun k -> B.c (float_of_int k /. 2.0)) (int_range (-6) 20));
        (3, map B.v (oneofl scalars));
        (1, return (B.deref "p"));
      ]
  in
  let rec tree d =
    if d = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 3,
            map3
              (fun op a b -> Types.Binop (op, a, b))
              (oneofl Types.[ Add; Sub; Mul; Div; Mod; Min; Max ])
              (tree (d - 1)) (tree (d - 1)) );
          ( 2,
            map3
              (fun op a b -> Types.Cmp (op, a, b))
              (oneofl Types.[ Eq; Ne; Lt; Le; Gt; Ge ])
              (tree (d - 1)) (tree (d - 1)) );
          ( 1,
            map2
              (fun op e -> Types.Unop (op, e))
              (oneofl Types.[ Neg; Not; Abs; Sqrt; Floor ])
              (tree (d - 1)) );
          (2, map2 (fun a e -> B.idx a e) (oneofl array_names) (tree (d - 1)));
        ]
  in
  tree 3

let gen_stmt =
  let open QCheck.Gen in
  let simple =
    frequency
      [
        (4, map2 (fun s e -> B.( := ) s e) (oneofl scalars) gen_expr);
        (3, map3 (fun a i e -> B.store a i e) (oneofl array_names) gen_expr gen_expr);
        (1, map (fun e -> B.ptr_store "p" e) gen_expr);
        (1, map (fun t -> B.ptr_set "p" t) (oneofl [ "x"; "y"; "r" ]));
        (1, map B.call (oneofl [ "sin"; "helper" ]));
        (1, return B.nop);
      ]
  in
  (* bounded nesting, constant loop bounds: every generated program
     terminates, so only Out_of_bounds distinguishes failing runs *)
  let rec stmt d =
    if d = 0 then simple
    else
      frequency
        [
          (5, simple);
          ( 1,
            map3
              (fun c t e -> B.if_ c t e)
              gen_expr
              (list_size (int_range 0 2) (stmt (d - 1)))
              (list_size (int_range 0 2) (stmt (d - 1))) );
          ( 1,
            map3
              (fun ix hi body -> B.for_ ix ~lo:(B.ci 0) ~hi:(B.ci hi) body)
              (oneofl [ "i"; "j" ])
              (int_range 0 5)
              (list_size (int_range 1 3) (stmt (d - 1))) );
        ]
  in
  stmt 2

let gen_program = QCheck.Gen.(pair (list_size (int_range 1 6) gen_stmt) (int_range 0 6))

let rec stmt_to_string = function
  | Types.Assign (s, e) -> Printf.sprintf "%s := %s" s (Expr.to_string e)
  | Types.Store (a, i, e) ->
      Printf.sprintf "%s[%s] := %s" a (Expr.to_string i) (Expr.to_string e)
  | Types.PtrStore (p, e) -> Printf.sprintf "*%s := %s" p (Expr.to_string e)
  | Types.PtrSet (p, t) -> Printf.sprintf "%s -> %s" p t
  | Types.If (c, t, e) ->
      Printf.sprintf "if %s {%s} {%s}" (Expr.to_string c) (block_to_string t)
        (block_to_string e)
  | Types.For { index; lo; hi; body } ->
      Printf.sprintf "for %s in [%s,%s) {%s}" index (Expr.to_string lo) (Expr.to_string hi)
        (block_to_string body)
  | Types.While (c, body) ->
      Printf.sprintf "while %s {%s}" (Expr.to_string c) (block_to_string body)
  | Types.Call f -> Printf.sprintf "call %s" f
  | Types.Nop -> "nop"

and block_to_string b = String.concat "; " (List.map stmt_to_string b)

let print_program (body, n) = Printf.sprintf "n=%d: %s" n (block_to_string body)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled execution matches the reference interpreter" ~count:500
    (QCheck.make ~print:print_program gen_program)
    (fun (body, n) ->
      let ts = make_ts body in
      compare (compiled_outcome ts n) (reference_outcome ts n) = 0)

let prop_scratch_reuse_deterministic =
  QCheck.Test.make ~name:"reusing one scratch across invocations is deterministic" ~count:200
    (QCheck.make ~print:print_program gen_program)
    (fun (body, n) ->
      let ts = make_ts body in
      let cfg = Cfg.of_ts ts in
      let env = Interp.make_env ts in
      let compiled = Interp.compile cfg env in
      let scratch = Interp.make_scratch compiled in
      let invoke () =
        (* full input-state reset: locals back to their initial 0.0 and
           the pointer back to its declared pointee, so any divergence is
           the scratch's, not leftover environment state *)
        List.iter (fun s -> Interp.set_scalar env s 0.0) scalars;
        Interp.set_scalar env "x" 3.0;
        Interp.set_scalar env "y" (-2.0);
        Interp.set_scalar env "n" (float_of_int n);
        Interp.set_pointer env "p" "x";
        List.iter (fun a -> Interp.set_array env a (input_array a)) array_names;
        match Interp.run_compiled compiled scratch with
        | () ->
            let r = Interp.result_of_scratch scratch in
            finished r
              (List.map (fun s -> (s, Interp.get_scalar env s)) scalars)
              (List.map (fun a -> (a, Array.copy (Interp.get_array env a))) array_names)
              (Interp.get_pointer env "p")
        | exception Interp.Out_of_bounds m -> Oob m
        | exception Interp.Step_limit_exceeded m -> Limit m
      in
      compare (invoke ()) (invoke ()) = 0)

(* ------------------------------------------------------------------ *)
(* Directed exception-message equality                                 *)
(* ------------------------------------------------------------------ *)

let test_step_limit_message () =
  let ts = B.ts ~name:"spin" ~params:[] ~locals:[] B.[ while_ (c 1.0) [ nop ] ] in
  match (compiled_outcome ~max_steps:1000 ts 0, reference_outcome ~max_steps:1000 ts 0) with
  | Limit a, Limit b -> Alcotest.(check string) "same message" b a
  | _ -> Alcotest.fail "expected Step_limit_exceeded from both interpreters"

let test_oob_message () =
  List.iter
    (fun body ->
      let ts = make_ts body in
      match (compiled_outcome ts 0, reference_outcome ts 0) with
      | Oob a, Oob b -> Alcotest.(check string) "same message" b a
      | _ -> Alcotest.fail "expected Out_of_bounds from both interpreters")
    [
      B.[ "r" := idx "a" (c (-0.9)) ];
      B.[ "r" := idx "a" (c 8.0) ];
      B.[ store "b" (c (-1.0)) (c 0.0) ];
    ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_compiled_matches_reference; prop_scratch_reuse_deterministic ]

let suites =
  [
    ( "ir.compile",
      qcheck_cases
      @ [
          Alcotest.test_case "step-limit message parity" `Quick test_step_limit_message;
          Alcotest.test_case "out-of-bounds message parity" `Quick test_oob_message;
        ] );
  ]
