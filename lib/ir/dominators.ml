type t = {
  cfg : Cfg.t;
  rpo_index : int array;  (** reverse-postorder number; -1 if unreachable *)
  idom : int array;  (** immediate dominator; -1 for entry/unreachable *)
  loops : (int * int list) list;  (** header -> sorted body blocks *)
}

(* Reverse postorder over reachable blocks. *)
let reverse_postorder cfg =
  let n = Cfg.n_blocks cfg in
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      List.iter dfs (Cfg.successors (Cfg.block cfg id));
      order := id :: !order
    end
  in
  dfs cfg.Cfg.entry;
  Array.of_list !order

let analyze (cfg : Cfg.t) =
  let n = Cfg.n_blocks cfg in
  let rpo = reverse_postorder cfg in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun i id -> rpo_index.(id) <- i) rpo;
  let preds = Array.init n (fun id -> Cfg.predecessors cfg id) in
  let idom = Array.make n (-1) in
  let entry = cfg.Cfg.entry in
  idom.(entry) <- entry;
  (* Cooper–Harvey–Kennedy: iterate to fixpoint in reverse postorder. *)
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun id ->
        if id <> entry then begin
          let processed =
            List.filter (fun p -> rpo_index.(p) >= 0 && idom.(p) <> -1) preds.(id)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(id) <> new_idom then begin
                idom.(id) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  idom.(entry) <- -1;
  let dominates_arr a b =
    (* walk b's dominator chain *)
    let rec up x = if x = a then true else if x = -1 || x = entry then a = x else up idom.(x) in
    if a = entry then rpo_index.(b) >= 0 else up b
  in
  (* back edges and natural loops *)
  let back_edges = ref [] in
  Array.iter
    (fun id ->
      if rpo_index.(id) >= 0 then
        List.iter
          (fun succ -> if dominates_arr succ id then back_edges := (id, succ) :: !back_edges)
          (Cfg.successors (Cfg.block cfg id)))
    rpo;
  let loops_tbl = Hashtbl.create 8 in
  List.iter
    (fun (tail, header) ->
      let body = Hashtbl.create 8 in
      Hashtbl.replace body header ();
      let rec collect id =
        if not (Hashtbl.mem body id) then begin
          Hashtbl.replace body id ();
          List.iter collect preds.(id)
        end
      in
      collect tail;
      let existing = Option.value ~default:[] (Hashtbl.find_opt loops_tbl header) in
      let merged =
        List.sort_uniq compare (existing @ Hashtbl.fold (fun k () acc -> k :: acc) body [])
      in
      Hashtbl.replace loops_tbl header merged)
    !back_edges;
  let loops = Hashtbl.fold (fun h body acc -> (h, body) :: acc) loops_tbl [] in
  { cfg; rpo_index; idom; loops }

let reachable t id = id >= 0 && id < Array.length t.rpo_index && t.rpo_index.(id) >= 0

let idom t id = if reachable t id && t.idom.(id) <> -1 then Some t.idom.(id) else None

let dominates t a b =
  if not (reachable t a && reachable t b) then false
  else begin
    let rec up x = x = a || (t.idom.(x) <> -1 && up t.idom.(x)) in
    up b
  end

let back_edges t =
  List.concat_map
    (fun (header, body) ->
      List.filter_map
        (fun tail ->
          if List.mem header (Cfg.successors (Cfg.block t.cfg tail)) && dominates t header tail
          then Some (tail, header)
          else None)
        body)
    t.loops
  |> List.sort_uniq compare

let loop_headers t = List.map fst t.loops |> List.sort compare

let natural_loop t ~header =
  match List.assoc_opt header t.loops with Some body -> body | None -> []

let loop_depth t id =
  List.fold_left (fun acc (_, body) -> if List.mem id body then acc + 1 else acc) 0 t.loops
