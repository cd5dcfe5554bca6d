(* Counting interpreter over a slot-compiled environment.

   The environment used to be three string-keyed hashtables; every
   lookup allocated an [option] and every recursive evaluation boxed a
   float, which made the interpreter — the system's innermost loop — the
   dominant allocator of a tuning run.  Names are now interned once into
   integer slots: scalars live in one [float array], arrays and pointer
   targets are indexed by slot id, and a CFG is compiled against a
   specific environment into flat per-operator instruction arrays
   executed on a preallocated operand stack.  The steady-state execution
   loop ([run_compiled] on a warm {!scratch}) performs no allocation at
   all; the allocation-budget gate in ci/check.sh holds it to that.

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

type result = {
  block_counts : int array;
  mem_reads : int;
  mem_writes : int;
  flops : int;
  touches : int array;
  impure_calls : int;
}

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

(* Expressions compile to postfix instruction arrays executed on a flat
   float stack; every operator gets its own constructor so the execution
   match lands directly on an unboxed float-array store.  [Iscalar] is
   used when the slot was already bound at compile time (nothing ever
   unbinds a slot, so the runtime check is dropped); names the CFG
   mentions but the environment has not bound yet get the checked
   variant. *)
type instr =
  | Iconst of float
  | Iscalar of int
  | Iscalar_checked of int
  | Iload of int * int  (* array slot, access-counter id; pops the index *)
  | Ideref of int * int  (* pointer slot, access-counter id *)
  | Ineg
  | Inot
  | Iabs
  | Isqrt
  | Ifloor
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Imod
  | Imin
  | Imax
  | Ieq
  | Ine
  | Ilt
  | Ile
  | Igt
  | Ige

type code = instr array

type cstmt =
  | Cassign of int * code  (* scalar slot <- expr *)
  | Cstore of int * int * code  (* array slot, counter id; code leaves [idx; value] *)
  | Cptr_store of int * int * code  (* pointer slot, counter id; code leaves [value] *)
  | Cptr_set of int * int  (* pointer slot <- scalar slot *)
  | Ccall_impure

type cterm = Cgoto of int | Cbranch of code * int * int | Cexit

type cblock = { c_stmts : cstmt array; c_term : cterm }

type compiled = {
  cp_env : env;
  cp_name : string;
  cp_blocks : cblock array;
  cp_entry : int;
  cp_stack_depth : int;
  cp_bases : int;  (* access counters: one per slot of [bases] *)
}

type scratch = {
  sc_stack : float array;
  sc_block_counts : int array;
  sc_accesses : int array;  (* per base slot *)
  mutable sc_reads : int;
  mutable sc_writes : int;
  mutable sc_flops : int;
  mutable sc_calls : int;
  mutable sc_sp : int;
  mutable sc_steps : int;
}

let compile (cfg : Cfg.t) env =
  (* access counter ids are the slots of [bases]: a result's touches
     come out in ascending name order with no sort *)
  let names = bases cfg in
  let base_ids = Hashtbl.create 8 in
  Array.iteri (fun b name -> Hashtbl.add base_ids name b) names;
  let base_id name = Hashtbl.find base_ids name in
  let max_depth = ref 1 in
  let scalar_read_instr v =
    let s = scalar_slot env v in
    if Bytes.get env.scalar_bound s <> '\000' then Iscalar s else Iscalar_checked s
  in
  (* [emit acc depth e] appends e's postfix code (reversed) to [acc];
     [depth] is the operand-stack occupancy before e executes. *)
  let rec emit acc depth e =
    if depth + 1 > !max_depth then max_depth := depth + 1;
    match e with
    | Types.Const k -> Iconst k :: acc
    | Types.Var v -> scalar_read_instr v :: acc
    | Types.Index (a, sub) ->
        let acc = emit acc depth sub in
        Iload (array_slot env a, base_id a) :: acc
    | Types.Deref p -> Ideref (pointer_slot env p, base_id p) :: acc
    | Types.Unop (op, e) ->
        let acc = emit acc depth e in
        (match op with
        | Types.Neg -> Ineg
        | Types.Not -> Inot
        | Types.Abs -> Iabs
        | Types.Sqrt -> Isqrt
        | Types.Floor -> Ifloor)
        :: acc
    | Types.Binop (op, a, b) ->
        let acc = emit acc depth a in
        let acc = emit acc (depth + 1) b in
        (match op with
        | Types.Add -> Iadd
        | Types.Sub -> Isub
        | Types.Mul -> Imul
        | Types.Div -> Idiv
        | Types.Mod -> Imod
        | Types.Min -> Imin
        | Types.Max -> Imax)
        :: acc
    | Types.Cmp (op, a, b) ->
        let acc = emit acc depth a in
        let acc = emit acc (depth + 1) b in
        (match op with
        | Types.Eq -> Ieq
        | Types.Ne -> Ine
        | Types.Lt -> Ilt
        | Types.Le -> Ile
        | Types.Gt -> Igt
        | Types.Ge -> Ige)
        :: acc
  in
  let code_of ?(depth = 0) e = Array.of_list (List.rev (emit [] depth e)) in
  let compile_stmt (s : Cfg.simple) =
    match s with
    | Cfg.SAssign (x, e) -> Some (Cassign (scalar_slot env x, code_of e))
    | Cfg.SStore (a, i, e) ->
        (* index code then value code: the combined run leaves the stack
           as [idx; value], evaluated in the original order with the
           bounds check after both — matching the reference. *)
        let idx = emit [] 0 i in
        let both = emit idx 1 e in
        Some (Cstore (array_slot env a, base_id a, Array.of_list (List.rev both)))
    | Cfg.SPtrStore (p, e) -> Some (Cptr_store (pointer_slot env p, base_id p, code_of e))
    | Cfg.SPtrSet (p, v) -> Some (Cptr_set (pointer_slot env p, scalar_slot env v))
    | Cfg.SCall f -> if Types.is_pure_external f then None else Some Ccall_impure
  in
  let blocks =
    Array.map
      (fun (b : Cfg.bblock) ->
        {
          c_stmts =
            Array.of_list (List.filter_map compile_stmt (Array.to_list b.Cfg.stmts));
          c_term =
            (match b.Cfg.term with
            | Cfg.Goto n -> Cgoto n
            | Cfg.Branch (c, t, f) -> Cbranch (code_of c, t, f)
            | Cfg.Exit -> Cexit);
        })
      cfg.Cfg.blocks
  in
  {
    cp_env = env;
    cp_name = cfg.Cfg.ts.Types.name;
    cp_blocks = blocks;
    cp_entry = cfg.Cfg.entry;
    cp_stack_depth = !max_depth;
    cp_bases = Array.length names;
  }

let make_scratch cp =
  {
    sc_stack = Array.make (max 1 cp.cp_stack_depth) 0.0;
    sc_block_counts = Array.make (Array.length cp.cp_blocks) 0;
    sc_accesses = Array.make cp.cp_bases 0;
    sc_reads = 0;
    sc_writes = 0;
    sc_flops = 0;
    sc_calls = 0;
    sc_sp = 0;
    sc_steps = 0;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* All raising paths live out of line so the hot loop only allocates
   when an exception actually fires. *)
let oob_index name i_float len context =
  raise
    (Out_of_bounds
       (Printf.sprintf "%s[%d] out of [0,%d) in %s" name
          (int_of_float (floor i_float))
          len context))

(* Execute one postfix code array; the result is left in sc_stack.(0).
   Returning it instead would box a float per expression. *)
let exec_code env sc (code : code) =
  let st = sc.sc_stack in
  sc.sc_sp <- 0;
  for pc = 0 to Array.length code - 1 do
    match Array.unsafe_get code pc with
    | Iconst k ->
        let sp = sc.sc_sp in
        st.(sp) <- k;
        sc.sc_sp <- sp + 1
    | Iscalar s ->
        let sp = sc.sc_sp in
        st.(sp) <- env.scalar_vals.(s);
        sc.sc_sp <- sp + 1
    | Iscalar_checked s ->
        if Bytes.get env.scalar_bound s = '\000' then unknown_scalar env.scalar_names.(s);
        let sp = sc.sc_sp in
        st.(sp) <- env.scalar_vals.(s);
        sc.sc_sp <- sp + 1
    | Iload (a, b) ->
        if Bytes.get env.array_bound a = '\000' then unknown_array env.array_names.(a);
        let arr = env.array_vals.(a) in
        let sp = sc.sc_sp - 1 in
        let i_float = st.(sp) in
        let i = int_of_float i_float in
        if i_float < 0.0 || i >= Array.length arr then
          oob_index env.array_names.(a) i_float (Array.length arr) "read";
        sc.sc_accesses.(b) <- sc.sc_accesses.(b) + 1;
        sc.sc_reads <- sc.sc_reads + 1;
        st.(sp) <- Array.unsafe_get arr i
    | Ideref (p, b) ->
        let target = env.pointer_targets.(p) in
        if target < 0 then unknown_pointer env.pointer_names.(p);
        sc.sc_accesses.(b) <- sc.sc_accesses.(b) + 1;
        sc.sc_reads <- sc.sc_reads + 1;
        if Bytes.get env.scalar_bound target = '\000' then
          unknown_scalar env.scalar_names.(target);
        let sp = sc.sc_sp in
        st.(sp) <- env.scalar_vals.(target);
        sc.sc_sp <- sp + 1
    | Ineg ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp) <- -.st.(sp)
    | Inot ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp) <- (if st.(sp) = 0.0 then 1.0 else 0.0)
    | Iabs ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp) <- abs_float st.(sp)
    | Isqrt ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp) <- sqrt st.(sp)
    | Ifloor ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp) <- floor st.(sp)
    | Iadd ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- st.(sp - 1) +. st.(sp);
        sc.sc_sp <- sp
    | Isub ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- st.(sp - 1) -. st.(sp);
        sc.sc_sp <- sp
    | Imul ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- st.(sp - 1) *. st.(sp);
        sc.sc_sp <- sp
    | Idiv ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- st.(sp - 1) /. st.(sp);
        sc.sc_sp <- sp
    | Imod ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- Float.rem st.(sp - 1) st.(sp);
        sc.sc_sp <- sp
    | Imin ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- Float.min st.(sp - 1) st.(sp);
        sc.sc_sp <- sp
    | Imax ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- Float.max st.(sp - 1) st.(sp);
        sc.sc_sp <- sp
    | Ieq ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- (if st.(sp - 1) = st.(sp) then 1.0 else 0.0);
        sc.sc_sp <- sp
    | Ine ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- (if st.(sp - 1) <> st.(sp) then 1.0 else 0.0);
        sc.sc_sp <- sp
    | Ilt ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- (if st.(sp - 1) < st.(sp) then 1.0 else 0.0);
        sc.sc_sp <- sp
    | Ile ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- (if st.(sp - 1) <= st.(sp) then 1.0 else 0.0);
        sc.sc_sp <- sp
    | Igt ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- (if st.(sp - 1) > st.(sp) then 1.0 else 0.0);
        sc.sc_sp <- sp
    | Ige ->
        let sp = sc.sc_sp - 1 in
        sc.sc_flops <- sc.sc_flops + 1;
        st.(sp - 1) <- (if st.(sp - 1) >= st.(sp) then 1.0 else 0.0);
        sc.sc_sp <- sp
  done

let exec_stmt env sc (s : cstmt) =
  match s with
  | Cassign (slot, code) ->
      exec_code env sc code;
      env.scalar_vals.(slot) <- sc.sc_stack.(0);
      Bytes.set env.scalar_bound slot '\001'
  | Cstore (a, b, code) ->
      exec_code env sc code;
      if Bytes.get env.array_bound a = '\000' then unknown_array env.array_names.(a);
      let arr = env.array_vals.(a) in
      let i_float = sc.sc_stack.(0) in
      let i = int_of_float i_float in
      if i_float < 0.0 || i >= Array.length arr then
        oob_index env.array_names.(a) i_float (Array.length arr) "write";
      sc.sc_accesses.(b) <- sc.sc_accesses.(b) + 1;
      sc.sc_writes <- sc.sc_writes + 1;
      Array.unsafe_set arr i sc.sc_stack.(1)
  | Cptr_store (p, b, code) ->
      exec_code env sc code;
      let target = env.pointer_targets.(p) in
      if target < 0 then unknown_pointer env.pointer_names.(p);
      sc.sc_writes <- sc.sc_writes + 1;
      sc.sc_accesses.(b) <- sc.sc_accesses.(b) + 1;
      env.scalar_vals.(target) <- sc.sc_stack.(0);
      Bytes.set env.scalar_bound target '\001'
  | Cptr_set (p, v) -> env.pointer_targets.(p) <- v
  | Ccall_impure -> sc.sc_calls <- sc.sc_calls + 1

let step_limit name max_steps =
  raise (Step_limit_exceeded (Printf.sprintf "%s: > %d block entries" name max_steps))

let rec exec_block cp env sc max_steps id =
  sc.sc_steps <- sc.sc_steps + 1;
  if sc.sc_steps > max_steps then step_limit cp.cp_name max_steps;
  sc.sc_block_counts.(id) <- sc.sc_block_counts.(id) + 1;
  let b = cp.cp_blocks.(id) in
  let stmts = b.c_stmts in
  for i = 0 to Array.length stmts - 1 do
    exec_stmt env sc (Array.unsafe_get stmts i)
  done;
  match b.c_term with
  | Cgoto next -> exec_block cp env sc max_steps next
  | Cbranch (code, if_true, if_false) ->
      (* the comparison itself was charged by its Cmp instruction; the
         branch decision adds no flop (the old double charge is gone) *)
      exec_code env sc code;
      exec_block cp env sc max_steps (if sc.sc_stack.(0) <> 0.0 then if_true else if_false)
  | Cexit -> ()

let run_compiled ?(max_steps = 10_000_000) cp sc =
  Array.fill sc.sc_block_counts 0 (Array.length sc.sc_block_counts) 0;
  Array.fill sc.sc_accesses 0 (Array.length sc.sc_accesses) 0;
  sc.sc_reads <- 0;
  sc.sc_writes <- 0;
  sc.sc_flops <- 0;
  sc.sc_calls <- 0;
  sc.sc_sp <- 0;
  sc.sc_steps <- 0;
  exec_block cp cp.cp_env sc max_steps cp.cp_entry

let scratch_steps sc = Array.fold_left ( + ) 0 sc.sc_block_counts

(* Snapshot a scratch into a fresh result: the counter arrays are
   copied, since the scratch is reused by the next invocation. *)
let result_of_scratch sc =
  {
    block_counts = Array.copy sc.sc_block_counts;
    mem_reads = sc.sc_reads;
    mem_writes = sc.sc_writes;
    flops = sc.sc_flops;
    touches = Array.copy sc.sc_accesses;
    impure_calls = sc.sc_calls;
  }

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
      let i = int_of_float i_float in
      if i_float < 0.0 || i >= Array.length arr then
        oob_index a i_float (Array.length arr) "read";
      arr.(i)
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
