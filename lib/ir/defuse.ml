type def = Entry | At of int * int

type site = Stmt of int * int | Term of int

module DefSet = Set.Make (struct
  type t = def

  let compare = compare
end)

type state = DefSet.t Loc.Map.t

type t = {
  cfg : Cfg.t;
  pts : Pointsto.t;
  block_in : state array;
  locations : Loc.t list;
}

let loc_get state loc =
  match Loc.Map.find_opt loc state with Some s -> s | None -> DefSet.empty

let join a b =
  Loc.Map.union (fun _ x y -> Some (DefSet.union x y)) a b

let state_equal a b = Loc.Map.equal DefSet.equal a b

(* Locations a statement defines, with strength. *)
let defs_of_simple_inner pts cfg s =
  match s with
  | Cfg.SAssign (x, _) -> [ (Loc.Scalar x, `Strong) ]
  | Cfg.SStore (a, _, _) -> [ (Loc.Array a, `Weak) ]
  | Cfg.SPtrStore (p, _) -> (
      match Pointsto.targets pts p with
      | [ v ] when not (Pointsto.is_retargeted pts p) -> [ (Loc.Scalar v, `Strong) ]
      | vs -> List.map (fun v -> (Loc.Scalar v, `Weak)) vs)
  | Cfg.SPtrSet (p, _) -> [ (Loc.Pointer p, `Strong) ]
  | Cfg.SCall f ->
      if Types.is_pure_external f then []
      else begin
        (* unknown call: may write anything the TS can name *)
        let ts = cfg.Cfg.ts in
        List.map (fun v -> (Loc.Scalar v, `Weak)) ts.params
        @ List.map (fun (a, _) -> (Loc.Array a, `Weak)) ts.arrays
        @ List.map (fun (p, _) -> (Loc.Pointer p, `Weak)) ts.pointers
      end

let value_sources (s : Cfg.simple) =
  match s with
  | SAssign (_, e) -> Expr.sources e
  | SStore (_, i, e) -> Expr.sources i @ Expr.sources e
  | SPtrStore (p, e) -> Expr.Pointer_deref p :: Expr.sources e
  | SPtrSet _ -> []
  | SCall _ -> []

let transfer pts cfg (b : Cfg.bblock) idx state =
  let defs = defs_of_simple_inner pts cfg b.stmts.(idx) in
  List.fold_left
    (fun st (loc, strength) ->
      let d = DefSet.singleton (At (b.id, idx)) in
      match strength with
      | `Strong -> Loc.Map.add loc d st
      | `Weak -> Loc.Map.add loc (DefSet.union d (loc_get st loc)) st)
    state defs

let block_out pts cfg (b : Cfg.bblock) state =
  let st = ref state in
  Array.iteri (fun i _ -> st := transfer pts cfg b i !st) b.stmts;
  !st

let analyze (cfg : Cfg.t) pts =
  let n = Cfg.n_blocks cfg in
  let ts = cfg.ts in
  let locations =
    List.map (fun v -> Loc.Scalar v) ts.params
    @ List.map (fun v -> Loc.Scalar v) ts.locals
    @ List.map (fun (a, _) -> Loc.Array a) ts.arrays
    @ List.map (fun (p, _) -> Loc.Pointer p) ts.pointers
  in
  let entry_state =
    List.fold_left
      (fun st loc -> Loc.Map.add loc (DefSet.singleton Entry) st)
      Loc.Map.empty locations
  in
  let block_in = Array.make n Loc.Map.empty in
  block_in.(cfg.entry) <- entry_state;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (b : Cfg.bblock) ->
        let out = block_out pts cfg b block_in.(b.id) in
        List.iter
          (fun succ ->
            let merged = join block_in.(succ) out in
            if not (state_equal merged block_in.(succ)) then begin
              block_in.(succ) <- merged;
              changed := true
            end)
          (Cfg.successors b))
      cfg.blocks
  done;
  { cfg; pts; block_in; locations }

let reaching t site loc =
  let block_id, upto =
    match site with
    | Stmt (b, i) -> (b, i)
    | Term b -> (b, Array.length (Cfg.block t.cfg b).stmts)
  in
  let b = Cfg.block t.cfg block_id in
  let st = ref t.block_in.(block_id) in
  for i = 0 to upto - 1 do
    st := transfer t.pts t.cfg b i !st
  done;
  DefSet.elements (loc_get !st loc)
