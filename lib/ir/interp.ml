(* Counting interpreter over a slot-compiled environment.

   Names are interned once into integer slots: scalars live in one
   [float array], arrays and pointer targets are indexed by slot id.  A
   CFG is compiled against a specific environment into one flat array
   of three-address register code whose operands are scalar slots, run
   by one loop over a local pc.  The steady-state execution loop
   ([run_compiled] on a warm {!scratch}) performs no allocation at all;
   the allocation-budget gate in ci/check.sh holds it to that.

   The string API ([get_scalar], [set_array], ...) survives as a thin
   compatibility wrapper, including the original semantics that a write
   to an undeclared name creates the binding (Cfg lowering relies on
   this for its [__tN] loop-limit temporaries, which are assigned before
   they are read but are absent from the [ts] the environment was built
   from). *)

exception Out_of_bounds of string
exception Step_limit_exceeded of string

(* ------------------------------------------------------------------ *)
(* Slot environment                                                    *)
(* ------------------------------------------------------------------ *)

(* Each name space (scalars, arrays, pointers) is a growable parallel
   table: name <-> slot, value per slot, and a bound flag.  A slot can
   exist unbound: compilation interns every name the CFG mentions, and a
   name first written at run time becomes bound then — reading it before
   that raises the same "unknown ..." error the hashtable miss used to. *)
type env = {
  scalar_slots : (string, int) Hashtbl.t;
  mutable scalar_names : string array;
  mutable scalar_vals : float array;
  mutable scalar_bound : Bytes.t;
  mutable n_scalars : int;
  array_slots : (string, int) Hashtbl.t;
  mutable array_names : string array;
  mutable array_vals : float array array;
  mutable array_bound : Bytes.t;
  mutable n_arrays : int;
  pointer_slots : (string, int) Hashtbl.t;
  mutable pointer_names : string array;
  mutable pointer_targets : int array;  (* scalar slot; -1 = unbound *)
  mutable n_pointers : int;
}

let empty_env () =
  {
    scalar_slots = Hashtbl.create 16;
    scalar_names = [||];
    scalar_vals = [||];
    scalar_bound = Bytes.empty;
    n_scalars = 0;
    array_slots = Hashtbl.create 8;
    array_names = [||];
    array_vals = [||];
    array_bound = Bytes.empty;
    n_arrays = 0;
    pointer_slots = Hashtbl.create 4;
    pointer_names = [||];
    pointer_targets = [||];
    n_pointers = 0;
  }

let grow_strings a cap =
  let b = Array.make cap "" in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_floats a cap =
  let b = Array.make cap 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bytes a cap =
  let b = Bytes.make cap '\000' in
  Bytes.blit a 0 b 0 (Bytes.length a);
  b

(* Intern a name without binding it; returns its slot. *)
let scalar_slot env v =
  match Hashtbl.find env.scalar_slots v with
  | s -> s
  | exception Not_found ->
      let s = env.n_scalars in
      if s >= Array.length env.scalar_vals then begin
        let cap = max 8 (2 * s) in
        env.scalar_names <- grow_strings env.scalar_names cap;
        env.scalar_vals <- grow_floats env.scalar_vals cap;
        env.scalar_bound <- grow_bytes env.scalar_bound cap
      end;
      env.scalar_names.(s) <- v;
      Hashtbl.add env.scalar_slots v s;
      env.n_scalars <- s + 1;
      s

let array_slot env a =
  match Hashtbl.find env.array_slots a with
  | s -> s
  | exception Not_found ->
      let s = env.n_arrays in
      if s >= Array.length env.array_vals then begin
        let cap = max 8 (2 * s) in
        env.array_names <- grow_strings env.array_names cap;
        let vals = Array.make cap [||] in
        Array.blit env.array_vals 0 vals 0 (Array.length env.array_vals);
        env.array_vals <- vals;
        env.array_bound <- grow_bytes env.array_bound cap
      end;
      env.array_names.(s) <- a;
      Hashtbl.add env.array_slots a s;
      env.n_arrays <- s + 1;
      s

let pointer_slot env p =
  match Hashtbl.find env.pointer_slots p with
  | s -> s
  | exception Not_found ->
      let s = env.n_pointers in
      if s >= Array.length env.pointer_targets then begin
        let cap = max 4 (2 * s) in
        env.pointer_names <- grow_strings env.pointer_names cap;
        let tg = Array.make cap (-1) in
        Array.blit env.pointer_targets 0 tg 0 (Array.length env.pointer_targets);
        env.pointer_targets <- tg
      end;
      env.pointer_names.(s) <- p;
      Hashtbl.add env.pointer_slots p s;
      env.n_pointers <- s + 1;
      s

let set_scalar env v x =
  let s = scalar_slot env v in
  env.scalar_vals.(s) <- x;
  Bytes.set env.scalar_bound s '\001'

let unknown_scalar v = raise (Out_of_bounds (Printf.sprintf "unknown scalar %s" v))
let unknown_array a = raise (Out_of_bounds (Printf.sprintf "unknown array %s" a))
let unknown_pointer p = raise (Out_of_bounds (Printf.sprintf "unknown pointer %s" p))

let get_scalar env v =
  match Hashtbl.find env.scalar_slots v with
  | s when Bytes.get env.scalar_bound s <> '\000' -> env.scalar_vals.(s)
  | _ | (exception Not_found) -> unknown_scalar v

let set_array env a x =
  let s = array_slot env a in
  env.array_vals.(s) <- x;
  Bytes.set env.array_bound s '\001'

let get_array env a =
  match Hashtbl.find env.array_slots a with
  | s when Bytes.get env.array_bound s <> '\000' -> env.array_vals.(s)
  | _ | (exception Not_found) -> unknown_array a

let set_pointer env p target =
  let ps = pointer_slot env p in
  env.pointer_targets.(ps) <- scalar_slot env target

let get_pointer env p =
  match Hashtbl.find env.pointer_slots p with
  | ps when env.pointer_targets.(ps) >= 0 -> env.scalar_names.(env.pointer_targets.(ps))
  | _ | (exception Not_found) -> unknown_pointer p

(* ------------------------------------------------------------------ *)
(* Handles                                                             *)
(* ------------------------------------------------------------------ *)

(* A handle caches one (env, slot) pair as one immutable record behind
   one mutable field: a reader loads the pair once and uses its slot
   only if its env is the caller's, so a slot is never paired with
   another env's tables.  The sentinel env is the [unresolved] record's
   own and never reaches a caller. *)
type binding = { b_env : env; b_slot : int }

let unresolved = { b_env = empty_env (); b_slot = -1 }

type handle = { h_name : string; mutable h_binding : binding }
type array_handle = { a_name : string; mutable a_binding : binding }

let handle name = { h_name = name; h_binding = unresolved }
let array_handle name = { a_name = name; a_binding = unresolved }

(* Slow paths, out of line: resolve against [env] and remember it. *)
let bind_scalar h env =
  let s = scalar_slot env h.h_name in
  h.h_binding <- { b_env = env; b_slot = s };
  s

let find_scalar h env =
  match Hashtbl.find env.scalar_slots h.h_name with
  | s ->
      h.h_binding <- { b_env = env; b_slot = s };
      s
  | exception Not_found -> unknown_scalar h.h_name

let find_array h env =
  match Hashtbl.find env.array_slots h.a_name with
  | s ->
      h.a_binding <- { b_env = env; b_slot = s };
      s
  | exception Not_found -> unknown_array h.a_name

let[@inline] set_handle h env x =
  let b = h.h_binding in
  let s = if b.b_env == env then b.b_slot else bind_scalar h env in
  env.scalar_vals.(s) <- x;
  Bytes.set env.scalar_bound s '\001'

let[@inline] get_handle h env =
  let b = h.h_binding in
  let s = if b.b_env == env then b.b_slot else find_scalar h env in
  if Bytes.get env.scalar_bound s = '\000' then unknown_scalar h.h_name;
  env.scalar_vals.(s)

let[@inline] get_array_handle h env =
  let b = h.a_binding in
  let s = if b.b_env == env then b.b_slot else find_array h env in
  if Bytes.get env.array_bound s = '\000' then unknown_array h.a_name;
  env.array_vals.(s)

let make_env (ts : Types.ts) =
  let env = empty_env () in
  List.iter (fun v -> set_scalar env v 0.0) ts.params;
  List.iter (fun v -> set_scalar env v 0.0) ts.locals;
  List.iter (fun (a, n) -> set_array env a (Array.make n 0.0)) ts.arrays;
  List.iter (fun (p, target) -> set_pointer env p target) ts.pointers;
  env

let copy_env env =
  {
    scalar_slots = Hashtbl.copy env.scalar_slots;
    scalar_names = Array.copy env.scalar_names;
    scalar_vals = Array.copy env.scalar_vals;
    scalar_bound = Bytes.copy env.scalar_bound;
    n_scalars = env.n_scalars;
    array_slots = Hashtbl.copy env.array_slots;
    array_names = Array.copy env.array_names;
    array_vals = Array.map Array.copy env.array_vals;
    array_bound = Bytes.copy env.array_bound;
    n_arrays = env.n_arrays;
    pointer_slots = Hashtbl.copy env.pointer_slots;
    pointer_names = Array.copy env.pointer_names;
    pointer_targets = Array.copy env.pointer_targets;
    n_pointers = env.n_pointers;
  }

(* Name-keyed equality over the bound bindings (slot layouts may
   differ between two envs that interned names in different orders). *)
let env_equal a b =
  let scalars_sub x y =
    let ok = ref true in
    for s = 0 to x.n_scalars - 1 do
      if Bytes.get x.scalar_bound s <> '\000' then begin
        match Hashtbl.find y.scalar_slots x.scalar_names.(s) with
        | t ->
            if Bytes.get y.scalar_bound t = '\000' || y.scalar_vals.(t) <> x.scalar_vals.(s)
            then ok := false
        | exception Not_found -> ok := false
      end
    done;
    !ok
  in
  let arrays_sub x y =
    let ok = ref true in
    for s = 0 to x.n_arrays - 1 do
      if Bytes.get x.array_bound s <> '\000' then begin
        match Hashtbl.find y.array_slots x.array_names.(s) with
        | t ->
            if Bytes.get y.array_bound t = '\000' || y.array_vals.(t) <> x.array_vals.(s)
            then ok := false
        | exception Not_found -> ok := false
      end
    done;
    !ok
  in
  let pointers_sub x y =
    let ok = ref true in
    for s = 0 to x.n_pointers - 1 do
      if x.pointer_targets.(s) >= 0 then begin
        let name = x.pointer_names.(s) in
        match get_pointer y name with
        | target -> if target <> x.scalar_names.(x.pointer_targets.(s)) then ok := false
        | exception Out_of_bounds _ -> ok := false
      end
    done;
    !ok
  in
  scalars_sub a b && scalars_sub b a && arrays_sub a b && arrays_sub b a
  && pointers_sub a b && pointers_sub b a

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = { block_counts : int array; touches : int array }

(* The bases a CFG touches, ascending by name: what its Index, Store,
   Deref and pointer-store operations name, in every block. *)
let bases (cfg : Cfg.t) =
  let acc = ref [] in
  let rec expr = function
    | Types.Const _ | Types.Var _ -> ()
    | Types.Index (a, sub) ->
        acc := a :: !acc;
        expr sub
    | Types.Deref p -> acc := p :: !acc
    | Types.Unop (_, e) -> expr e
    | Types.Binop (_, a, b) | Types.Cmp (_, a, b) ->
        expr a;
        expr b
  in
  let stmt = function
    | Cfg.SAssign (_, e) -> expr e
    | Cfg.SStore (a, i, e) ->
        acc := a :: !acc;
        expr i;
        expr e
    | Cfg.SPtrStore (p, e) ->
        acc := p :: !acc;
        expr e
    | Cfg.SPtrSet _ | Cfg.SCall _ -> ()
  in
  Array.iter
    (fun (b : Cfg.bblock) ->
      Array.iter stmt b.Cfg.stmts;
      match b.Cfg.term with Cfg.Branch (c, _, _) -> expr c | Cfg.Goto _ | Cfg.Exit -> ())
    cfg.Cfg.blocks;
  Array.of_list (List.sort_uniq String.compare !acc)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Three-address register code.  Every operand is a slot of the scalar
   value array: a named scalar's own slot, a temporary's, or a
   constant's.  Temporaries (one per expression depth) and constants
   (one per distinct bit pattern) are interned under names that start
   with a NUL byte, which no section declares, and are never bound, so
   [get_scalar], [env_equal] and snapshots do not see them.  A leaf
   therefore costs no instruction: [x := y + 1] is one [Iadd].

   Straight-line instructions name their destination first.  A read of
   a scalar that was unbound at compile time is preceded by an [Icheck]
   at the point the leaf is evaluated, and an assignment to one is
   followed by an [Ibind]; Cfg's [__tN] loop limits are such scalars.
   Each block ends in one jump, which performs the entry to its target
   block (step count, step limit, block count). *)
type instr =
  | Imov of int * int
  | Icheck of int
  | Ibind of int
  | Iload of int * int * int * int  (* dst, array slot, base slot, index *)
  | Ideref of int * int * int  (* dst, pointer slot, base slot *)
  | Istore of int * int * int * int  (* array slot, base slot, index, value *)
  | Iptr_store of int * int * int  (* pointer slot, base slot, value *)
  | Iptr_set of int * int  (* pointer slot <- scalar slot *)
  | Ineg of int * int
  | Inot of int * int
  | Iabs of int * int
  | Isqrt of int * int
  | Ifloor of int * int
  | Iadd of int * int * int
  | Isub of int * int * int
  | Imul of int * int * int
  | Idiv of int * int * int
  | Imod of int * int * int
  | Imin of int * int * int
  | Imax of int * int * int
  | Ieq of int * int * int
  | Ine of int * int * int
  | Ilt of int * int * int
  | Ile of int * int * int
  | Igt of int * int * int
  | Ige of int * int * int
  (* jumps name target blocks: [Jlt (a, b, t, f)] enters [t] when
     [a < b] and [f] otherwise; [Jnz] branches on a nonzero operand *)
  | Jgoto of int
  | Jeq of int * int * int * int
  | Jne of int * int * int * int
  | Jlt of int * int * int * int
  | Jle of int * int * int * int
  | Jgt of int * int * int * int
  | Jge of int * int * int * int
  | Jnz of int * int * int
  | Jexit

type compiled = {
  cp_env : env;
  cp_name : string;
  cp_code : instr array;
  cp_start : int array;  (* block id -> pc of its first instruction *)
  cp_entry : int;
  cp_bases : int;  (* access counters: one per slot of [bases] *)
}

type scratch = {
  sc_block_counts : int array;
  sc_accesses : int array;  (* per base slot *)
  sc_lent : result;  (* the two counter arrays above, uncopied *)
  mutable sc_steps : int;
}

let compile (cfg : Cfg.t) env =
  (* access counter ids are the slots of [bases]: a result's touches
     come out in ascending name order with no sort *)
  let names = bases cfg in
  let base_ids = Hashtbl.create 8 in
  Array.iteri (fun b name -> Hashtbl.add base_ids name b) names;
  let base_id name = Hashtbl.find base_ids name in
  let unbound s = Bytes.get env.scalar_bound s = '\000' in
  let temp depth = scalar_slot env (Printf.sprintf "\000t%d" depth) in
  (* keyed by bits, so -0.0 and each nan payload keep their own slot *)
  let const k =
    let s = scalar_slot env (Printf.sprintf "\000k%Lx" (Int64.bits_of_float k)) in
    env.scalar_vals.(s) <- k;
    s
  in
  let code = ref [] in
  let emit i = code := i :: !code in
  (* [operand depth e] emits e's code and returns the slot holding its
     value: a leaf's own slot, or the temporary of [depth]. *)
  let rec operand depth e =
    match e with
    | Types.Const k -> const k
    | Types.Var v ->
        let s = scalar_slot env v in
        if unbound s then emit (Icheck s);
        s
    | _ ->
        let t = temp depth in
        into t depth e;
        t
  (* [into dst depth e] emits code leaving e's value in [dst]; operands
     are evaluated left to right, the right one a depth deeper, so no
     operand's code overwrites a temporary still to be read. *)
  and into dst depth e =
    match e with
    | Types.Const _ | Types.Var _ -> emit (Imov (dst, operand depth e))
    | Types.Index (a, sub) ->
        let i = operand depth sub in
        emit (Iload (dst, array_slot env a, base_id a, i))
    | Types.Deref p -> emit (Ideref (dst, pointer_slot env p, base_id p))
    | Types.Unop (op, e) ->
        let a = operand depth e in
        emit
          (match op with
          | Types.Neg -> Ineg (dst, a)
          | Types.Not -> Inot (dst, a)
          | Types.Abs -> Iabs (dst, a)
          | Types.Sqrt -> Isqrt (dst, a)
          | Types.Floor -> Ifloor (dst, a))
    | Types.Binop (op, a, b) ->
        let a = operand depth a in
        let b = operand (depth + 1) b in
        emit
          (match op with
          | Types.Add -> Iadd (dst, a, b)
          | Types.Sub -> Isub (dst, a, b)
          | Types.Mul -> Imul (dst, a, b)
          | Types.Div -> Idiv (dst, a, b)
          | Types.Mod -> Imod (dst, a, b)
          | Types.Min -> Imin (dst, a, b)
          | Types.Max -> Imax (dst, a, b))
    | Types.Cmp (op, a, b) ->
        let a = operand depth a in
        let b = operand (depth + 1) b in
        emit
          (match op with
          | Types.Eq -> Ieq (dst, a, b)
          | Types.Ne -> Ine (dst, a, b)
          | Types.Lt -> Ilt (dst, a, b)
          | Types.Le -> Ile (dst, a, b)
          | Types.Gt -> Igt (dst, a, b)
          | Types.Ge -> Ige (dst, a, b))
  in
  let stmt (s : Cfg.simple) =
    match s with
    | Cfg.SAssign (x, e) ->
        let s = scalar_slot env x in
        into s 0 e;
        if unbound s then emit (Ibind s)
    | Cfg.SStore (a, i, e) ->
        (* index, then value, then the bounds check: the reference's order *)
        let i = operand 0 i in
        let v = operand 1 e in
        emit (Istore (array_slot env a, base_id a, i, v))
    | Cfg.SPtrStore (p, e) ->
        let v = operand 0 e in
        emit (Iptr_store (pointer_slot env p, base_id p, v))
    | Cfg.SPtrSet (p, v) -> emit (Iptr_set (pointer_slot env p, scalar_slot env v))
    | Cfg.SCall _ -> ()
  in
  let jump = function
    | Cfg.Goto n -> Jgoto n
    | Cfg.Exit -> Jexit
    | Cfg.Branch (Types.Cmp (op, a, b), t, f) -> (
        let a = operand 0 a in
        let b = operand 1 b in
        match op with
        | Types.Eq -> Jeq (a, b, t, f)
        | Types.Ne -> Jne (a, b, t, f)
        | Types.Lt -> Jlt (a, b, t, f)
        | Types.Le -> Jle (a, b, t, f)
        | Types.Gt -> Jgt (a, b, t, f)
        | Types.Ge -> Jge (a, b, t, f))
    | Cfg.Branch (c, t, f) -> Jnz (operand 0 c, t, f)
  in
  let blocks =
    Array.map
      (fun (b : Cfg.bblock) ->
        code := [];
        Array.iter stmt b.Cfg.stmts;
        emit (jump b.Cfg.term);
        Array.of_list (List.rev !code))
      cfg.Cfg.blocks
  in
  let start = Array.make (Array.length blocks) 0 in
  for id = 1 to Array.length blocks - 1 do
    start.(id) <- start.(id - 1) + Array.length blocks.(id - 1)
  done;
  {
    cp_env = env;
    cp_name = cfg.Cfg.ts.Types.name;
    cp_code = Array.concat (Array.to_list blocks);
    cp_start = start;
    cp_entry = cfg.Cfg.entry;
    cp_bases = Array.length names;
  }

let make_scratch cp =
  let block_counts = Array.make (Array.length cp.cp_start) 0 in
  let accesses = Array.make cp.cp_bases 0 in
  {
    sc_block_counts = block_counts;
    sc_accesses = accesses;
    sc_lent = { block_counts; touches = accesses };
    sc_steps = 0;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* An index is in range when [0 <= i < len] holds of the float itself:
   converting first would read nan, infinities and anything past the
   int range as an unspecified int (on amd64, 0 or a negative that
   passes a signed check).  The message prints the floored index, as
   an int while it is one. *)
let[@inline] in_range i_float len = i_float >= 0.0 && i_float < float_of_int len

let index_text i_float =
  let f = floor i_float in
  if Float.abs f < 0x1p62 then string_of_int (int_of_float f) else Printf.sprintf "%.0f" f

(* All raising paths live out of line so the hot loop only allocates
   when an exception actually fires. *)
let oob_index name i_float len context =
  raise
    (Out_of_bounds
       (Printf.sprintf "%s[%s] out of [0,%d) in %s" name (index_text i_float) len context))

let step_limit name max_steps =
  raise (Step_limit_exceeded (Printf.sprintf "%s: > %d block entries" name max_steps))

(* Enter block [id]; returns the pc of its first instruction. *)
let[@inline] enter cp sc max_steps id =
  sc.sc_steps <- sc.sc_steps + 1;
  if sc.sc_steps > max_steps then step_limit cp.cp_name max_steps;
  sc.sc_block_counts.(id) <- sc.sc_block_counts.(id) + 1;
  cp.cp_start.(id)

let run_compiled ?(max_steps = 10_000_000) cp sc =
  Array.fill sc.sc_block_counts 0 (Array.length sc.sc_block_counts) 0;
  Array.fill sc.sc_accesses 0 (Array.length sc.sc_accesses) 0;
  sc.sc_steps <- 0;
  let env = cp.cp_env in
  (* no name is interned while a section runs, so the value array
     cannot be replaced under the loop *)
  let v = env.scalar_vals in
  let code = cp.cp_code in
  let touches = sc.sc_accesses in
  let pc = ref (enter cp sc max_steps cp.cp_entry) in
  while !pc >= 0 do
    match Array.unsafe_get code !pc with
    | Imov (d, a) ->
        v.(d) <- v.(a);
        incr pc
    | Icheck s ->
        if Bytes.get env.scalar_bound s = '\000' then unknown_scalar env.scalar_names.(s);
        incr pc
    | Ibind s ->
        Bytes.set env.scalar_bound s '\001';
        incr pc
    | Iload (d, a, b, i) ->
        if Bytes.get env.array_bound a = '\000' then unknown_array env.array_names.(a);
        let arr = env.array_vals.(a) in
        let i_float = v.(i) in
        if not (in_range i_float (Array.length arr)) then
          oob_index env.array_names.(a) i_float (Array.length arr) "read";
        touches.(b) <- touches.(b) + 1;
        v.(d) <- Array.unsafe_get arr (int_of_float i_float);
        incr pc
    | Ideref (d, p, b) ->
        let target = env.pointer_targets.(p) in
        if target < 0 then unknown_pointer env.pointer_names.(p);
        touches.(b) <- touches.(b) + 1;
        if Bytes.get env.scalar_bound target = '\000' then
          unknown_scalar env.scalar_names.(target);
        v.(d) <- v.(target);
        incr pc
    | Istore (a, b, i, x) ->
        if Bytes.get env.array_bound a = '\000' then unknown_array env.array_names.(a);
        let arr = env.array_vals.(a) in
        let i_float = v.(i) in
        if not (in_range i_float (Array.length arr)) then
          oob_index env.array_names.(a) i_float (Array.length arr) "write";
        touches.(b) <- touches.(b) + 1;
        Array.unsafe_set arr (int_of_float i_float) v.(x);
        incr pc
    | Iptr_store (p, b, x) ->
        let target = env.pointer_targets.(p) in
        if target < 0 then unknown_pointer env.pointer_names.(p);
        touches.(b) <- touches.(b) + 1;
        v.(target) <- v.(x);
        Bytes.set env.scalar_bound target '\001';
        incr pc
    | Iptr_set (p, s) ->
        env.pointer_targets.(p) <- s;
        incr pc
    | Ineg (d, a) ->
        v.(d) <- -.v.(a);
        incr pc
    | Inot (d, a) ->
        v.(d) <- (if v.(a) = 0.0 then 1.0 else 0.0);
        incr pc
    | Iabs (d, a) ->
        v.(d) <- abs_float v.(a);
        incr pc
    | Isqrt (d, a) ->
        v.(d) <- sqrt v.(a);
        incr pc
    | Ifloor (d, a) ->
        v.(d) <- floor v.(a);
        incr pc
    | Iadd (d, a, b) ->
        v.(d) <- v.(a) +. v.(b);
        incr pc
    | Isub (d, a, b) ->
        v.(d) <- v.(a) -. v.(b);
        incr pc
    | Imul (d, a, b) ->
        v.(d) <- v.(a) *. v.(b);
        incr pc
    | Idiv (d, a, b) ->
        v.(d) <- v.(a) /. v.(b);
        incr pc
    | Imod (d, a, b) ->
        v.(d) <- Float.rem v.(a) v.(b);
        incr pc
    | Imin (d, a, b) ->
        v.(d) <- Float.min v.(a) v.(b);
        incr pc
    | Imax (d, a, b) ->
        v.(d) <- Float.max v.(a) v.(b);
        incr pc
    | Ieq (d, a, b) ->
        v.(d) <- (if v.(a) = v.(b) then 1.0 else 0.0);
        incr pc
    | Ine (d, a, b) ->
        v.(d) <- (if v.(a) <> v.(b) then 1.0 else 0.0);
        incr pc
    | Ilt (d, a, b) ->
        v.(d) <- (if v.(a) < v.(b) then 1.0 else 0.0);
        incr pc
    | Ile (d, a, b) ->
        v.(d) <- (if v.(a) <= v.(b) then 1.0 else 0.0);
        incr pc
    | Igt (d, a, b) ->
        v.(d) <- (if v.(a) > v.(b) then 1.0 else 0.0);
        incr pc
    | Ige (d, a, b) ->
        v.(d) <- (if v.(a) >= v.(b) then 1.0 else 0.0);
        incr pc
    | Jgoto t -> pc := enter cp sc max_steps t
    | Jeq (a, b, t, f) -> pc := enter cp sc max_steps (if v.(a) = v.(b) then t else f)
    | Jne (a, b, t, f) -> pc := enter cp sc max_steps (if v.(a) <> v.(b) then t else f)
    | Jlt (a, b, t, f) -> pc := enter cp sc max_steps (if v.(a) < v.(b) then t else f)
    | Jle (a, b, t, f) -> pc := enter cp sc max_steps (if v.(a) <= v.(b) then t else f)
    | Jgt (a, b, t, f) -> pc := enter cp sc max_steps (if v.(a) > v.(b) then t else f)
    | Jge (a, b, t, f) -> pc := enter cp sc max_steps (if v.(a) >= v.(b) then t else f)
    | Jnz (a, t, f) -> pc := enter cp sc max_steps (if v.(a) <> 0.0 then t else f)
    | Jexit -> pc := -1
  done

let scratch_steps sc = sc.sc_steps

(* Snapshot a scratch into a fresh result: the counter arrays are
   copied, since the scratch is reused by the next invocation. *)
let result_of_scratch sc =
  { block_counts = Array.copy sc.sc_block_counts; touches = Array.copy sc.sc_accesses }

let lent_result sc = sc.sc_lent

let run ?max_steps (cfg : Cfg.t) env =
  let cp = compile cfg env in
  let sc = make_scratch cp in
  run_compiled ?max_steps cp sc;
  result_of_scratch sc

(* ------------------------------------------------------------------ *)
(* Uncounted evaluation (compat)                                       *)
(* ------------------------------------------------------------------ *)

let deref_target env p = get_pointer env p

let rec eval env e =
  match e with
  | Types.Const k -> k
  | Types.Var v -> get_scalar env v
  | Types.Index (a, sub) ->
      let i_float = eval env sub in
      let arr = get_array env a in
      if not (in_range i_float (Array.length arr)) then
        oob_index a i_float (Array.length arr) "read";
      arr.(int_of_float i_float)
  | Types.Deref p -> get_scalar env (deref_target env p)
  | Types.Unop (op, e) -> Expr.apply_unop op (eval env e)
  | Types.Binop (op, a, b) ->
      let x = eval env a in
      let y = eval env b in
      Expr.apply_binop op x y
  | Types.Cmp (op, a, b) ->
      let x = eval env a in
      let y = eval env b in
      Expr.apply_cmp op x y

let read_source env = function
  | Expr.Scalar v -> get_scalar env v
  | Expr.Array_elem (a, Some k) ->
      let arr = get_array env a in
      if k < 0 || k >= Array.length arr then
        raise (Out_of_bounds (Printf.sprintf "%s[%d] (context read)" a k));
      arr.(k)
  | Expr.Array_elem (a, None) ->
      raise (Out_of_bounds (Printf.sprintf "%s[non-constant] is not a context source" a))
  | Expr.Pointer_deref p -> get_scalar env (deref_target env p)

(* A context source resolved like the handles above: each read looks up
   no name.  Reads raise exactly what [read_source] raises. *)
type pointer_handle = { p_name : string; mutable p_binding : binding }

type source_handle =
  | Src_scalar of handle
  | Src_elem of array_handle * int
  | Src_deref of pointer_handle
  | Src_invalid of Expr.source

let source_handle = function
  | Expr.Scalar v -> Src_scalar (handle v)
  | Expr.Array_elem (a, Some k) -> Src_elem (array_handle a, k)
  | Expr.Pointer_deref p -> Src_deref { p_name = p; p_binding = unresolved }
  | Expr.Array_elem (_, None) as src -> Src_invalid src

let find_pointer h env =
  match Hashtbl.find env.pointer_slots h.p_name with
  | s ->
      h.p_binding <- { b_env = env; b_slot = s };
      s
  | exception Not_found -> unknown_pointer h.p_name

let read_source_into h env dst i =
  match h with
  | Src_scalar h -> dst.(i) <- get_handle h env
  | Src_elem (h, k) ->
      let arr = get_array_handle h env in
      if k < 0 || k >= Array.length arr then
        raise (Out_of_bounds (Printf.sprintf "%s[%d] (context read)" h.a_name k));
      dst.(i) <- arr.(k)
  | Src_deref h ->
      let b = h.p_binding in
      let ps = if b.b_env == env then b.b_slot else find_pointer h env in
      let target = env.pointer_targets.(ps) in
      if target < 0 then unknown_pointer h.p_name;
      if Bytes.get env.scalar_bound target = '\000' then
        unknown_scalar env.scalar_names.(target);
      dst.(i) <- env.scalar_vals.(target)
  | Src_invalid src -> dst.(i) <- read_source env src

