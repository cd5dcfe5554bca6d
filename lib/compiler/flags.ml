(** The 38 optimization flags implied by GCC 3.3 [-O3].

    The paper's search space (Section 5.2) is exactly this flag set: the
    options [-O3] turns on, which Iterative Elimination prunes one by
    one.  Names and optimization levels follow the GCC 3.3 manual; the
    behavioural model for each flag lives in {!Effects}. *)

type t = {
  index : int;
  name : string;
  level : int;  (** Lowest -O level that enables the flag. *)
  description : string;
}

let specs =
  [|
    (* -O1 *)
    ("defer-pop", 1, "accumulate function-argument pops");
    ("merge-constants", 1, "merge identical constants across units");
    ("thread-jumps", 1, "thread jumps to jumps");
    ("loop-optimize", 1, "loop strength/invariant optimizations");
    ("if-conversion", 1, "convert conditionals to branchless code");
    ("if-conversion2", 1, "if-conversion using condition codes");
    ("delayed-branch", 1, "fill delay slots (delay-slot targets)");
    ("guess-branch-probability", 1, "static branch prediction");
    ("cprop-registers", 1, "register copy propagation");
    ("omit-frame-pointer", 1, "free the frame-pointer register");
    (* -O2 *)
    ("force-mem", 2, "copy memory operands into registers first");
    ("optimize-sibling-calls", 2, "tail/sibling call optimization");
    ("strength-reduce", 2, "loop strength reduction");
    ("cse-follow-jumps", 2, "CSE across jumps");
    ("cse-skip-blocks", 2, "CSE skipping blocks");
    ("gcse", 2, "global common subexpression elimination");
    ("gcse-lm", 2, "GCSE load motion");
    ("gcse-sm", 2, "GCSE store motion");
    ("rerun-cse-after-loop", 2, "re-run CSE after loop optimization");
    ("rerun-loop-opt", 2, "re-run the loop optimizer");
    ("expensive-optimizations", 2, "enable costly minor optimizations");
    ("schedule-insns", 2, "instruction scheduling before reg-alloc");
    ("schedule-insns2", 2, "instruction scheduling after reg-alloc");
    ("sched-interblock", 2, "scheduling across basic blocks");
    ("sched-spec", 2, "speculative scheduling of loads");
    ("regmove", 2, "register move coalescing");
    ("strict-aliasing", 2, "type-based alias disambiguation");
    ("delete-null-pointer-checks", 2, "remove provably-redundant null checks");
    ("reorder-blocks", 2, "basic-block layout by predicted frequency");
    ("reorder-functions", 2, "function layout by hot/cold sections");
    ("align-functions", 2, "align function entries");
    ("align-jumps", 2, "align branch targets");
    ("align-loops", 2, "align loop headers");
    ("align-labels", 2, "align all labels");
    ("caller-saves", 2, "allocate call-crossing values to caller-saved regs");
    ("peephole2", 2, "RTL peephole optimizations");
    (* -O3 *)
    ("inline-functions", 3, "inline functions judged small enough");
    ("rename-registers", 3, "rename registers to break false dependences");
  |]

let all =
  Array.mapi
    (fun index (name, level, description) -> { index; name; level; description })
    specs

let count = Array.length all

let () = assert (count = 38)

let table =
  let t = Hashtbl.create count in
  Array.iter (fun f -> Hashtbl.replace t f.name f) all;
  t

let by_name name = Hashtbl.find_opt table name

let by_index i =
  if i < 0 || i >= count then invalid_arg "Flags.by_index" else all.(i)

let gcc_name f = "-f" ^ f.name
