(* Differential testing of the compiled (register-code) interpreter
   against the string-keyed reference interpreter.

   [Oracles.Reference_interp] is the original hashtable implementation
   kept as an executable specification; the compiled path must be
   observably identical on every program: block counts, the touch counts
   per base (numbered by [Interp.bases], which the reference checks
   covers every base it touched), the exception (constructor and
   message) on failing runs, and the environment state the run leaves,
   failing or not.  Floats are compared bit for bit, any nan equal to
   any nan, so a [-0.0] that reads back as [0.0] is a difference. *)

open Peak_ir
module B = Builder

(* The fixed declaration frame every generated program runs in.  The
   [undeclared] names are bound by no declaration: a program creates
   them by assigning them (or storing through a pointer aimed at one),
   and a read before that raises. *)
let scalars = [ "x"; "y"; "n"; "i"; "j"; "r"; "s" ]
let undeclared = [ "u"; "w" ]
let array_names = [ "a"; "b" ]
let array_len = 8

let make_ts ?(name = "gen") body =
  B.ts ~name ~params:[ "x"; "y"; "n" ]
    ~arrays:(List.map (fun a -> (a, array_len)) array_names)
    ~pointers:[ ("p", "x") ] ~locals:[ "i"; "j"; "r"; "s" ] body

let input_array name = Array.init array_len (fun k ->
    match name with
    | "a" -> float_of_int k *. 0.5
    | _ -> float_of_int (7 - k))

let bits x = if Float.is_nan x then Int64.bits_of_float Float.nan else Int64.bits_of_float x

type run = Counts of int array * int array | Oob of string | Limit of string

(* Everything an invocation can observably do: how the run ended, then
   the state it left (an undeclared name reads [None] while unbound). *)
type outcome = {
  run : run;
  final_scalars : (string * int64 option) list;
  final_arrays : (string * int64 array) list;
  final_pointer : string option;
}

let run_of f =
  match f () with
  | (r : Interp.result) -> Counts (r.Interp.block_counts, r.Interp.touches)
  | exception Interp.Out_of_bounds m -> Oob m
  | exception Interp.Step_limit_exceeded m -> Limit m

let observe run ~get_scalar ~get_array ~get_pointer =
  {
    run;
    final_scalars =
      List.map
        (fun s ->
          (s, match get_scalar s with x -> Some (bits x) | exception Interp.Out_of_bounds _ -> None))
        (scalars @ undeclared);
    final_arrays = List.map (fun a -> (a, Array.map bits (get_array a))) array_names;
    final_pointer =
      (match get_pointer "p" with t -> Some t | exception Interp.Out_of_bounds _ -> None);
  }

let set_inputs ~set_scalar ~set_array n =
  set_scalar "x" 3.0;
  set_scalar "y" (-2.0);
  set_scalar "n" (float_of_int n);
  List.iter (fun a -> set_array a (input_array a)) array_names

(* A generated loop whose body resets its index never ends: it stops at
   the step limit, which both interpreters must hit with the same
   message.  Every terminating program takes far fewer block entries. *)
let step_cap = 10_000

(* Run each section in turn against one environment, compiling all of
   them first: they share its temporaries, constants and Cfg's [__tN]
   names.  A failing run leaves its partial state for the next. *)
let compiled_outcomes ?(max_steps = step_cap) tss n =
  let env = Interp.make_env (List.hd tss) in
  set_inputs ~set_scalar:(Interp.set_scalar env) ~set_array:(Interp.set_array env) n;
  let compiled = List.map (fun ts -> Interp.compile (Cfg.of_ts ts) env) tss in
  List.map
    (fun cp ->
      let sc = Interp.make_scratch cp in
      let run =
        run_of (fun () ->
            Interp.run_compiled ~max_steps cp sc;
            Interp.result_of_scratch sc)
      in
      observe run ~get_scalar:(Interp.get_scalar env)
        ~get_array:(fun a -> Array.copy (Interp.get_array env a))
        ~get_pointer:(Interp.get_pointer env))
    compiled

let reference_outcomes ?(max_steps = step_cap) tss n =
  let module R = Oracles.Reference_interp in
  let env = R.make_env (List.hd tss) in
  set_inputs ~set_scalar:(R.set_scalar env) ~set_array:(R.set_array env) n;
  List.map
    (fun ts ->
      let run = run_of (fun () -> R.run ~max_steps (Cfg.of_ts ts) env) in
      observe run ~get_scalar:(R.get_scalar env)
        ~get_array:(fun a -> Array.copy (R.get_array env a))
        ~get_pointer:(R.get_pointer env))
    tss

let compiled_outcome ?max_steps ts n = List.hd (compiled_outcomes ?max_steps [ ts ] n)
let reference_outcome ?max_steps ts n = List.hd (reference_outcomes ?max_steps [ ts ] n)

(* ------------------------------------------------------------------ *)
(* Program generator                                                   *)
(* ------------------------------------------------------------------ *)

let binops = Types.[ Add; Sub; Mul; Div; Mod; Min; Max ]
let cmpops = Types.[ Eq; Ne; Lt; Le; Gt; Ge ]
let unops = Types.[ Neg; Not; Abs; Sqrt; Floor ]

(* a constant every statement may draw, so several share its slot *)
let shared_const = 2.5

(* [undeclared_weight] 0 keeps the undeclared names out *)
let gen_leaf ~undeclared_weight =
  let open QCheck.Gen in
  frequency
    [
      (* halves cover fractional and negative constants; the range
         reaches past the array extent so subscripts go out of bounds *)
      (4, map (fun k -> B.c (float_of_int k /. 2.0)) (int_range (-6) 20));
      (1, map B.c (oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity ]));
      (* subscripts past the int range: truncating them first would
         read element 0 or a negative int that passes a signed check *)
      (1, map B.c (oneofl [ 1e19; -1e19; 5e18; 0x1p62; 0x1p63 ]));
      (1, return (B.c shared_const));
      (6, map B.v (oneofl scalars));
      (undeclared_weight, map B.v (oneofl undeclared));
      (1, return (B.deref "p"));
    ]

let binop op a b = Types.Binop (op, a, b)
let cmp op a b = Types.Cmp (op, a, b)

let gen_shallow =
  let open QCheck.Gen in
  let gen_leaf = gen_leaf ~undeclared_weight:1 in
  let rec tree d =
    if d = 0 then gen_leaf
    else
      frequency
        [
          (3, gen_leaf);
          (3, map3 binop (oneofl binops) (tree (d - 1)) (tree (d - 1)));
          (2, map3 cmp (oneofl cmpops) (tree (d - 1)) (tree (d - 1)));
          (1, map2 (fun op e -> Types.Unop (op, e)) (oneofl unops) (tree (d - 1)));
          (2, map2 (fun a e -> B.idx a e) (oneofl array_names) (tree (d - 1)));
        ]
  in
  tree 3

(* Operators all the way down: both operand sides of the root are
   operator trees four deep, so temporaries at several depths are live
   at once.  Its many leaves leave out the undeclared names, or nearly
   every such tree would raise on one. *)
let gen_deep =
  let open QCheck.Gen in
  let gen_leaf = gen_leaf ~undeclared_weight:0 in
  let rec tree d =
    if d = 0 then gen_leaf
    else
      frequency
        [
          (4, map3 binop (oneofl binops) (tree (d - 1)) (tree (d - 1)));
          (2, map3 cmp (oneofl cmpops) (tree (d - 1)) (tree (d - 1)));
          (1, map2 (fun op e -> Types.Unop (op, e)) (oneofl unops) (tree (d - 1)));
          (1, map2 (fun a e -> B.idx a e) (oneofl array_names) (tree (d - 1)));
        ]
  in
  map3 binop (oneofl binops) (tree 4) (tree 4)

let gen_expr = QCheck.Gen.frequency [ (6, gen_shallow); (1, gen_deep) ]

(* A branch condition: a bare compare, a compare of compares, or any
   other expression (taken when nonzero). *)
let gen_cond =
  let open QCheck.Gen in
  let bare = map3 cmp (oneofl cmpops) gen_shallow gen_shallow in
  frequency
    [ (3, bare); (2, map3 cmp (oneofl cmpops) bare bare); (2, gen_expr) ]

let gen_stmt =
  let open QCheck.Gen in
  let simple =
    frequency
      [
        (4, map2 (fun s e -> B.( := ) s e) (oneofl scalars) gen_expr);
        (2, map2 (fun s e -> B.( := ) s e) (oneofl undeclared) gen_expr);
        (3, map3 (fun a i e -> B.store a i e) (oneofl array_names) gen_expr gen_expr);
        (1, map (fun e -> B.ptr_store "p" e) gen_expr);
        (1, map (fun t -> B.ptr_set "p" t) (oneofl [ "x"; "y"; "r"; "w" ]));
        (1, map B.call (oneofl [ "sin"; "helper" ]));
        (1, return B.nop);
      ]
  in
  (* bounded nesting, constant loop bounds: a program ends, raises
     Out_of_bounds, or resets a loop index and meets [step_cap] *)
  let rec stmt d =
    if d = 0 then simple
    else
      frequency
        [
          (5, simple);
          ( 1,
            map3
              (fun c t e -> B.if_ c t e)
              gen_cond
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

(* Two programs in three assign the undeclared names first, so their
   reads also run past the check. *)
let gen_body =
  let open QCheck.Gen in
  let prologue =
    map (List.map2 (fun u e -> B.( := ) u e) undeclared) (list_repeat 2 gen_shallow)
  in
  map2 ( @ ) (frequency [ (1, return []); (2, prologue) ]) (list_size (int_range 1 6) gen_stmt)

let gen_program = QCheck.Gen.(pair gen_body (int_range 0 6))

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

let prop_two_sections_one_env =
  QCheck.Test.make ~name:"two sections compiled against one env match the reference"
    ~count:200
    (QCheck.make
       ~print:(fun (a, b, n) -> print_program (a, n) ^ " / then: " ^ block_to_string b)
       QCheck.Gen.(triple gen_body gen_body (int_range 0 6)))
    (fun (a, b, n) ->
      let tss = [ make_ts ~name:"first" a; make_ts ~name:"second" b ] in
      compare (compiled_outcomes tss n) (reference_outcomes tss n) = 0)

(* Compiling interns hidden temporaries and constants into an env; none
   of them may show in [env_equal] against an env that never saw a
   compile, before or after the same writes. *)
let prop_compiled_env_equal =
  QCheck.Test.make ~name:"a compiled env equals an uncompiled copy after the same writes"
    ~count:200
    (QCheck.make ~print:print_program gen_program)
    (fun (body, n) ->
      let ts = make_ts body in
      let compiled = Interp.make_env ts in
      ignore (Interp.compile (Cfg.of_ts ts) compiled);
      let plain = Interp.make_env ts in
      let same () = Interp.env_equal compiled plain && Interp.env_equal plain compiled in
      let before = same () in
      List.iter
        (fun env ->
          set_inputs ~set_scalar:(Interp.set_scalar env) ~set_array:(Interp.set_array env) n;
          Interp.set_scalar env "u" (-0.0);
          Interp.set_pointer env "p" "w")
        [ compiled; plain ];
      let after = same () in
      Interp.set_scalar plain "u" 1.0;
      before && after && not (same ()))

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
           the scratch's, not leftover environment state; the undeclared
           names stay bound from the first invocation on *)
        List.iter (fun s -> Interp.set_scalar env s 0.0) (scalars @ undeclared);
        set_inputs ~set_scalar:(Interp.set_scalar env) ~set_array:(Interp.set_array env) n;
        Interp.set_pointer env "p" "x";
        let run =
          run_of (fun () ->
              Interp.run_compiled ~max_steps:step_cap compiled scratch;
              Interp.result_of_scratch scratch)
        in
        observe run ~get_scalar:(Interp.get_scalar env)
          ~get_array:(fun a -> Array.copy (Interp.get_array env a))
          ~get_pointer:(Interp.get_pointer env)
      in
      compare (invoke ()) (invoke ()) = 0)

(* ------------------------------------------------------------------ *)
(* Directed exception-message equality                                 *)
(* ------------------------------------------------------------------ *)

let test_step_limit_message () =
  let ts = B.ts ~name:"spin" ~params:[] ~locals:[] B.[ while_ (c 1.0) [ nop ] ] in
  match
    ((compiled_outcome ~max_steps:1000 ts 0).run, (reference_outcome ~max_steps:1000 ts 0).run)
  with
  | Limit a, Limit b -> Alcotest.(check string) "same message" b a
  | _ -> Alcotest.fail "expected Step_limit_exceeded from both interpreters"

let test_oob_message () =
  List.iter
    (fun body ->
      let ts = make_ts body in
      match ((compiled_outcome ts 0).run, (reference_outcome ts 0).run) with
      | Oob a, Oob b -> Alcotest.(check string) "same message" b a
      | _ -> Alcotest.fail "expected Out_of_bounds from both interpreters")
    [
      B.[ "r" := idx "a" (c (-0.9)) ];
      B.[ "r" := idx "a" (c 8.0) ];
      B.[ store "b" (c (-1.0)) (c 0.0) ];
      B.[ "r" := idx "a" (c Float.nan) ];
      B.[ "r" := idx "a" (c Float.infinity) ];
      B.[ "r" := idx "a" (c Float.neg_infinity) ];
      B.[ "r" := idx "a" (c 1e19) ];
      B.[ "r" := idx "a" (c 5e18) ];
      B.[ "r" := idx "a" (c 0x1p62) ];
      B.[ store "b" (c Float.nan) (c 9.0) ];
      B.[ store "b" (c 5e18) (c 9.0) ];
      B.[ "r" := v "u" + c 1.0 ];
      B.[ ptr_set "p" "w"; "r" := deref "p" ];
    ]

(* The message names the subscript it rejected: a nan must not read as
   element 0, nor an index past the int range as a wrapped int.  The
   uncounted evaluator raises the same error. *)
let test_oob_names_index () =
  List.iter
    (fun (k, text) ->
      let expected = Printf.sprintf "a[%s] out of [0,%d) in read" text array_len in
      (match (compiled_outcome (make_ts B.[ "r" := idx "a" (c k) ]) 0).run with
      | Oob m -> Alcotest.(check string) "compiled message" expected m
      | _ -> Alcotest.failf "a[%s]: expected Out_of_bounds" text);
      let env = Interp.make_env (make_ts []) in
      match Interp.eval env (Types.Index ("a", Types.Const k)) with
      | _ -> Alcotest.failf "eval a[%s]: expected Out_of_bounds" text
      | exception Interp.Out_of_bounds m -> Alcotest.(check string) "eval message" expected m)
    [
      (Float.nan, "nan");
      (Float.infinity, "inf");
      (Float.neg_infinity, "-inf");
      (-0.5, "-1");
      (1e19, "10000000000000000000");
      (5e18, "5000000000000000000");
      (0x1p62, "4611686018427387904");
    ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compiled_matches_reference;
      prop_two_sections_one_env;
      prop_compiled_env_equal;
      prop_scratch_reuse_deterministic;
    ]

let suites =
  [
    ( "ir.compile",
      qcheck_cases
      @ [
          Alcotest.test_case "step-limit message parity" `Quick test_step_limit_message;
          Alcotest.test_case "out-of-bounds message parity" `Quick test_oob_message;
          Alcotest.test_case "out-of-range subscripts name their index" `Quick
            test_oob_names_index;
        ] );
  ]
