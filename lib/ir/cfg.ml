open Types

type simple =
  | SAssign of var * expr
  | SStore of var * expr * expr
  | SPtrStore of var * expr
  | SPtrSet of var * var
  | SCall of string

type terminator =
  | Goto of int
  | Branch of expr * int * int
  | Exit

type bblock = {
  id : int;
  stmts : simple array;
  term : terminator;
  loop_depth : int;
  is_loop_header : bool;
}

type t = { ts : ts; blocks : bblock array; entry : int }

(* Lowering builds blocks imperatively: a block under construction is a
   list of simple statements; closing it assigns the terminator.  Block
   ids are allocated eagerly so forward branches can reference targets
   before their contents exist. *)

type proto = {
  mutable p_stmts : simple list;  (* reverse order *)
  mutable p_term : terminator option;
  mutable p_depth : int;
  mutable p_header : bool;
}

let of_ts ts =
  let protos : proto list ref = ref [] in
  let n = ref 0 in
  let fresh_block () =
    let p = { p_stmts = []; p_term = None; p_depth = 0; p_header = false } in
    protos := p :: !protos;
    incr n;
    (!n - 1, p)
  in
  let temp_count = ref 0 in
  let temps = ref [] in
  let fresh_temp () =
    let t = Printf.sprintf "__t%d" !temp_count in
    incr temp_count;
    temps := t :: !temps;
    t
  in
  (* [lower block cur depth k] appends [block] to proto [cur], then
     terminates into a fresh block which is returned for continuation. *)
  let close (_, p) term = if p.p_term = None then p.p_term <- Some term in
  let emit (_, p) s = p.p_stmts <- s :: p.p_stmts in
  let rec lower_block stmts cur depth =
    List.fold_left (fun cur s -> lower_stmt s cur depth) cur stmts
  and lower_stmt s cur depth =
    match s with
    | Nop -> cur
    | Assign (x, e) ->
        emit cur (SAssign (x, e));
        cur
    | Store (a, i, e) ->
        emit cur (SStore (a, i, e));
        cur
    | PtrStore (p, e) ->
        emit cur (SPtrStore (p, e));
        cur
    | PtrSet (p, v) ->
        emit cur (SPtrSet (p, v));
        cur
    | Call f ->
        emit cur (SCall f);
        cur
    | If (cond, then_b, else_b) ->
        let (tid, tp) = fresh_block () in
        let (eid, ep) = fresh_block () in
        let (jid, jp) = fresh_block () in
        tp.p_depth <- depth;
        ep.p_depth <- depth;
        jp.p_depth <- depth;
        close cur (Branch (cond, tid, eid));
        let t_end = lower_block then_b (tid, tp) depth in
        close t_end (Goto jid);
        let e_end = lower_block else_b (eid, ep) depth in
        close e_end (Goto jid);
        (jid, jp)
    | While (cond, body) ->
        let (hid, hp) = fresh_block () in
        let (bid, bp) = fresh_block () in
        let (xid, xp) = fresh_block () in
        hp.p_depth <- depth;
        hp.p_header <- true;
        bp.p_depth <- depth + 1;
        xp.p_depth <- depth;
        close cur (Goto hid);
        close (hid, hp) (Branch (cond, bid, xid));
        let b_end = lower_block body (bid, bp) (depth + 1) in
        close b_end (Goto hid);
        (xid, xp)
    | For { index; lo; hi; body } ->
        (* Evaluate both bounds on entry; the limit goes into a fresh
           temporary so mutations of [hi]'s variables inside the body do
           not change the trip count. *)
        let limit = fresh_temp () in
        emit cur (SAssign (index, lo));
        emit cur (SAssign (limit, hi));
        let (hid, hp) = fresh_block () in
        let (bid, bp) = fresh_block () in
        let (xid, xp) = fresh_block () in
        hp.p_depth <- depth;
        hp.p_header <- true;
        bp.p_depth <- depth + 1;
        xp.p_depth <- depth;
        close cur (Goto hid);
        close (hid, hp) (Branch (Cmp (Lt, Var index, Var limit), bid, xid));
        let b_end = lower_block body (bid, bp) (depth + 1) in
        emit b_end (SAssign (index, Binop (Add, Var index, Const 1.0)));
        close b_end (Goto hid);
        (xid, xp)
  in
  let (entry_id, entry_p) = fresh_block () in
  let last = lower_block ts.body (entry_id, entry_p) 0 in
  close last Exit;
  let protos = Array.of_list (List.rev !protos) in
  let blocks =
    Array.mapi
      (fun id p ->
        {
          id;
          stmts = Array.of_list (List.rev p.p_stmts);
          term = (match p.p_term with Some t -> t | None -> Exit);
          loop_depth = p.p_depth;
          is_loop_header = p.p_header;
        })
      protos
  in
  let ts = { ts with locals = ts.locals @ List.rev !temps } in
  { ts; blocks; entry = entry_id }

let n_blocks t = Array.length t.blocks
let block t i = t.blocks.(i)

let successors b =
  match b.term with
  | Goto x -> [ x ]
  | Branch (_, a, b') -> if a = b' then [ a ] else [ a; b' ]
  | Exit -> []

let predecessors t id =
  let preds = ref [] in
  Array.iter
    (fun b -> if List.mem id (successors b) then preds := b.id :: !preds)
    t.blocks;
  List.rev !preds

let control_conditions t =
  Array.to_list t.blocks
  |> List.filter_map (fun b ->
         match b.term with Branch (cond, _, _) -> Some (b.id, cond) | Goto _ | Exit -> None)

let temporaries t =
  List.filter (fun v -> String.length v > 3 && String.sub v 0 3 = "__t") t.ts.locals

let pp_simple fmt = function
  | SAssign (x, e) -> Format.fprintf fmt "%s = %a" x Expr.pp e
  | SStore (a, i, e) -> Format.fprintf fmt "%s[%a] = %a" a Expr.pp i Expr.pp e
  | SPtrStore (p, e) -> Format.fprintf fmt "*%s = %a" p Expr.pp e
  | SPtrSet (p, v) -> Format.fprintf fmt "%s = &%s" p v
  | SCall f -> Format.fprintf fmt "call %s()" f

let pp fmt t =
  Format.fprintf fmt "@[<v>cfg %s (entry=%d)@," t.ts.name t.entry;
  Array.iter
    (fun b ->
      Format.fprintf fmt "  B%d (depth=%d%s):@," b.id b.loop_depth
        (if b.is_loop_header then ", header" else "");
      Array.iter (fun s -> Format.fprintf fmt "    %a@," pp_simple s) b.stmts;
      (match b.term with
      | Goto x -> Format.fprintf fmt "    goto B%d@," x
      | Branch (c, a, b') -> Format.fprintf fmt "    if %a then B%d else B%d@," Expr.pp c a b'
      | Exit -> Format.fprintf fmt "    exit@,"))
    t.blocks;
  Format.fprintf fmt "@]"
