type block = {
  alu : int;
  muldiv : int;
  transcendental : int;
  mem_read : int;
  mem_write : int;
  redundancy : int;
  pressure : int;
  bases : string list;
  pointer_bases : string list;
  has_branch : bool;
  loop_depth : int;
  is_loop_header : bool;
  impure_calls : int;
}

type ts = {
  blocks : block array;
  max_pressure : int;
  alias_pairs : int;
  n_loops : int;
}

(* Operation counts of one expression. *)
let rec expr_ops e =
  let open Types in
  match e with
  | Const _ | Var _ -> (0, 0, 0, 0)
  | Deref _ -> (0, 0, 0, 1)
  | Index (_, sub) ->
      let a, m, t, r = expr_ops sub in
      (a + 1, m, t, r + 1) (* address arithmetic + load *)
  | Unop (Sqrt, e) ->
      let a, m, t, r = expr_ops e in
      (a, m, t + 1, r)
  | Unop (_, e) ->
      let a, m, t, r = expr_ops e in
      (a + 1, m, t, r)
  | Binop ((Mul | Div | Mod), x, y) ->
      let a1, m1, t1, r1 = expr_ops x and a2, m2, t2, r2 = expr_ops y in
      (a1 + a2, m1 + m2 + 1, t1 + t2, r1 + r2)
  | Binop (_, x, y) | Cmp (_, x, y) ->
      let a1, m1, t1, r1 = expr_ops x and a2, m2, t2, r2 = expr_ops y in
      (a1 + a2 + 1, m1 + m2, t1 + t2, r1 + r2)

let block_exprs (b : Cfg.bblock) =
  let stmt_exprs = function
    | Cfg.SAssign (_, e) -> [ e ]
    | Cfg.SStore (_, i, e) -> [ i; e ]
    | Cfg.SPtrStore (_, e) -> [ e ]
    | Cfg.SPtrSet _ -> []
    | Cfg.SCall _ -> []
  in
  let from_stmts = List.concat_map stmt_exprs (Array.to_list b.stmts) in
  match b.term with Cfg.Branch (c, _, _) -> c :: from_stmts | _ -> from_stmts

(* Redundancy: extra occurrences of nontrivial subexpressions repeated
   within the block. *)
let redundancy_of exprs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun sub ->
          if Expr.size sub >= 2 then
            Hashtbl.replace tbl sub (1 + Option.value ~default:0 (Hashtbl.find_opt tbl sub)))
        (Expr.subexpressions e))
    exprs;
  Hashtbl.fold (fun _ n acc -> if n > 1 then acc + n - 1 else acc) tbl 0

let dedup l =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

let block_features (b : Cfg.bblock) =
  let exprs = block_exprs b in
  let alu, muldiv, transcendental, mem_read =
    List.fold_left
      (fun (a, m, t, r) e ->
        let a', m', t', r' = expr_ops e in
        (a + a', m + m', t + t', r + r'))
      (0, 0, 0, 0) exprs
  in
  let mem_write, impure_calls, pure_calls =
    Array.fold_left
      (fun (w, ic, pc) s ->
        match s with
        | Cfg.SStore _ | Cfg.SPtrStore _ -> (w + 1, ic, pc)
        | Cfg.SCall f -> if Types.is_pure_external f then (w, ic, pc + 1) else (w, ic + 1, pc)
        | Cfg.SAssign _ | Cfg.SPtrSet _ -> (w, ic, pc))
      (0, 0, 0) b.stmts
  in
  let scalars = dedup (List.concat_map Expr.scalar_uses exprs) in
  let defined =
    Array.to_list b.stmts
    |> List.filter_map (function Cfg.SAssign (x, _) -> Some x | _ -> None)
    |> dedup
  in
  let sources = List.concat_map Expr.sources exprs in
  let pointer_bases =
    dedup
      (List.filter_map (function Expr.Pointer_deref p -> Some p | _ -> None) sources
      @ (Array.to_list b.stmts
        |> List.filter_map (function Cfg.SPtrStore (p, _) -> Some p | _ -> None)))
  in
  let bases =
    dedup
      (List.concat_map Expr.array_bases exprs
      @ pointer_bases
      @ (Array.to_list b.stmts
        |> List.filter_map (function Cfg.SStore (a, _, _) -> Some a | _ -> None)))
  in
  let max_depth = List.fold_left (fun acc e -> max acc (Expr.depth e)) 0 exprs in
  {
    alu;
    muldiv;
    transcendental = transcendental + pure_calls;
    mem_read;
    mem_write;
    redundancy = redundancy_of exprs;
    pressure = List.length (dedup (scalars @ defined)) + List.length bases + max_depth;
    bases;
    pointer_bases;
    has_branch = (match b.term with Cfg.Branch _ -> true | _ -> false);
    loop_depth = b.loop_depth;
    is_loop_header = b.is_loop_header;
    impure_calls;
  }

(* Whole-TS summary vector for cross-program similarity (knowledge
   base).  Kept in lockstep with [vector_dims]; every component is a
   finite float by construction (counts, shares and means over counts). *)
let vector_dims =
  [
    "blocks";
    "loops";
    "max_loop_depth";
    "loop_mass";
    "alu";
    "muldiv";
    "transcendental";
    "mem_read";
    "mem_write";
    "redundancy";
    "max_pressure";
    "mean_pressure";
    "alias_pairs";
    "branch_share";
    "pointer_block_share";
    "impure_calls";
  ]

let vector (ts : ts) =
  let n = Array.length ts.blocks in
  let fn = float_of_int n in
  let sum f = Array.fold_left (fun acc b -> acc + f b) 0 ts.blocks in
  let fsum f = float_of_int (sum f) in
  let share p =
    if n = 0 then 0.0 else float_of_int (sum (fun b -> if p b then 1 else 0)) /. fn
  in
  let max_depth = Array.fold_left (fun acc b -> max acc b.loop_depth) 0 ts.blocks in
  [|
    fn;
    float_of_int ts.n_loops;
    float_of_int max_depth;
    fsum (fun b -> b.loop_depth);
    fsum (fun b -> b.alu);
    fsum (fun b -> b.muldiv);
    fsum (fun b -> b.transcendental);
    fsum (fun b -> b.mem_read);
    fsum (fun b -> b.mem_write);
    fsum (fun b -> b.redundancy);
    float_of_int ts.max_pressure;
    (if n = 0 then 0.0 else fsum (fun b -> b.pressure) /. fn);
    float_of_int ts.alias_pairs;
    share (fun b -> b.has_branch);
    share (fun b -> b.pointer_bases <> []);
    fsum (fun b -> b.impure_calls);
  |]

let of_cfg (cfg : Cfg.t) =
  let blocks = Array.map block_features cfg.blocks in
  let max_pressure = Array.fold_left (fun acc b -> max acc b.pressure) 0 blocks in
  let alias_pairs =
    Array.fold_left
      (fun acc b ->
        let k = List.length b.bases in
        acc + (k * (k - 1) / 2))
      0 blocks
  in
  let n_loops = Array.fold_left (fun acc b -> if b.is_loop_header then acc + 1 else acc) 0 blocks in
  { blocks; max_pressure; alias_pairs; n_loops }
