open Peak_machine

let flag name =
  match Flags.by_name name with
  | Some f -> f
  | None -> invalid_arg ("Effects: unknown flag " ^ name)

(* The flags the model consults, resolved once at module load: a
   compile tests bits, never names. *)
module F = struct
  let defer_pop = flag "defer-pop"
  let merge_constants = flag "merge-constants"
  let thread_jumps = flag "thread-jumps"
  let loop_optimize = flag "loop-optimize"
  let if_conversion = flag "if-conversion"
  let if_conversion2 = flag "if-conversion2"
  let delayed_branch = flag "delayed-branch"
  let guess_branch_probability = flag "guess-branch-probability"
  let cprop_registers = flag "cprop-registers"
  let omit_frame_pointer = flag "omit-frame-pointer"
  let force_mem = flag "force-mem"
  let optimize_sibling_calls = flag "optimize-sibling-calls"
  let strength_reduce = flag "strength-reduce"
  let cse_follow_jumps = flag "cse-follow-jumps"
  let cse_skip_blocks = flag "cse-skip-blocks"
  let gcse = flag "gcse"
  let gcse_lm = flag "gcse-lm"
  let gcse_sm = flag "gcse-sm"
  let rerun_cse_after_loop = flag "rerun-cse-after-loop"
  let rerun_loop_opt = flag "rerun-loop-opt"
  let expensive_optimizations = flag "expensive-optimizations"
  let schedule_insns = flag "schedule-insns"
  let schedule_insns2 = flag "schedule-insns2"
  let sched_interblock = flag "sched-interblock"
  let sched_spec = flag "sched-spec"
  let regmove = flag "regmove"
  let strict_aliasing = flag "strict-aliasing"
  let delete_null_pointer_checks = flag "delete-null-pointer-checks"
  let reorder_blocks = flag "reorder-blocks"
  let reorder_functions = flag "reorder-functions"
  let align_functions = flag "align-functions"
  let align_jumps = flag "align-jumps"
  let align_loops = flag "align-loops"
  let align_labels = flag "align-labels"
  let caller_saves = flag "caller-saves"
  let peephole2 = flag "peephole2"
  let inline_functions = flag "inline-functions"
  let rename_registers = flag "rename-registers"
end

(* Model constants, named so the bench calibration and the ablation
   discussion can refer to them. *)
module K = struct
  let cse_follow_jumps = 0.30
  let cse_skip_blocks = 0.12
  let gcse = 0.45
  let rerun_cse = 0.13
  let cse_pressure_per_op = 0.25
  let expensive_amplifier = 1.2
  let loop_overhead_cut = 0.65
  let invariant_motion = 0.94
  let strength_reduce_moved = 0.65
  let sched1_ilp = 0.55
  let sched1_pressure = 1.2
  let sched2_ilp = 0.25
  let sched2_pressure = 0.5
  let interblock_ilp = 0.12
  let spec_ilp = 0.10
  let rename_ilp = 0.18
  let guess_branch_cut = 0.70
  let reorder_blocks_cut = 0.80
  let ifcvt_alu_cost = 2.0
  let ifcvt_max_ops = 5.0
  let strict_alias_mem = 0.85
  let strict_alias_ilp = 0.25
  let strict_alias_pressure_per_pointer = 6.6
  let spill_coefficient = 0.30
  let inline_overhead_cut = 0.35
  let inline_pressure = 0.5
end

type ctx = {
  machine : Machine.t;
  ts : Peak_ir.Features.ts;
  config : Optconfig.t;
  amplify : float;
}

let on ctx f = Optconfig.is_enabled ctx.config f

let make_ctx machine ts config =
  {
    machine;
    ts;
    config;
    amplify =
      (if Optconfig.is_enabled config F.expensive_optimizations then K.expensive_amplifier
       else 1.0);
  }

(* Mutable working copy of one block's state under optimization. *)
type work = {
  mutable alu : float;
  mutable muldiv : float;
  mutable transcendental : float;
  mutable mem : float;
  mutable branches : float;
  mutable mispredict : float;
  mutable ilp : float;
  mutable overhead : float;
  mutable pressure : float;
}

let work_of_block (b : Peak_ir.Features.block) =
  let base = Cost.of_features b in
  {
    alu = base.alu;
    muldiv = base.muldiv;
    transcendental = base.transcendental;
    mem = base.mem;
    branches = base.branches;
    mispredict = base.mispredict_rate;
    ilp = base.ilp;
    overhead = base.overhead;
    pressure = float_of_int b.pressure;
  }

let apply_scalar_cleanups ctx w =
  if on ctx F.cprop_registers then w.alu <- w.alu *. 0.97;
  if on ctx F.regmove then begin
    w.alu <- w.alu *. 0.98;
    w.pressure <- Float.max 0.0 (w.pressure -. 0.5)
  end;
  if on ctx F.peephole2 then begin
    w.alu <- w.alu *. 0.97;
    w.mem <- w.mem *. 0.99
  end;
  if on ctx F.merge_constants then w.mem <- w.mem *. 0.995;
  if on ctx F.defer_pop then w.overhead <- Float.max 0.0 (w.overhead -. 0.05);
  if on ctx F.force_mem then begin
    w.alu <- w.alu *. 0.97;
    w.pressure <- w.pressure +. 0.5
  end;
  if on ctx F.delete_null_pointer_checks && w.mem > 0.0 then
    w.alu <- Float.max 0.0 (w.alu -. 0.2);
  if on ctx F.reorder_functions then w.overhead <- w.overhead *. 0.995

let apply_cse ctx (b : Peak_ir.Features.block) w =
  let power = ref 0.0 in
  if on ctx F.cse_follow_jumps then power := !power +. K.cse_follow_jumps;
  if on ctx F.cse_skip_blocks then power := !power +. K.cse_skip_blocks;
  if on ctx F.gcse then power := !power +. K.gcse;
  if
    on ctx F.rerun_cse_after_loop && b.loop_depth > 0
    && (on ctx F.gcse || on ctx F.cse_follow_jumps)
  then power := !power +. K.rerun_cse;
  let fraction = Float.min 0.9 (!power *. ctx.amplify) in
  if fraction > 0.0 && b.redundancy > 0 then begin
    let eliminated = float_of_int b.redundancy *. fraction in
    let ops = w.alu +. w.muldiv in
    if ops > 0.0 then begin
      let cut_alu = eliminated *. (w.alu /. ops) in
      let cut_muldiv = eliminated *. (w.muldiv /. ops) in
      (* CSE cannot remove more than 60% of a block's arithmetic *)
      w.alu <- Float.max (w.alu *. 0.4) (w.alu -. cut_alu);
      w.muldiv <- Float.max (w.muldiv *. 0.4) (w.muldiv -. cut_muldiv)
    end;
    w.pressure <- w.pressure +. (eliminated *. K.cse_pressure_per_op)
  end;
  if on ctx F.gcse && b.loop_depth > 0 then begin
    if on ctx F.gcse_lm then w.mem <- w.mem *. 0.93;
    if on ctx F.gcse_sm then w.mem <- w.mem *. 0.97
  end

let apply_loop ctx (b : Peak_ir.Features.block) w =
  if b.loop_depth > 0 || b.is_loop_header then begin
    if on ctx F.loop_optimize then begin
      w.overhead <- w.overhead *. K.loop_overhead_cut;
      w.alu <- w.alu *. K.invariant_motion;
      w.pressure <- w.pressure +. 0.5;
      if on ctx F.rerun_loop_opt then w.alu <- w.alu *. 0.985
    end;
    if on ctx F.strength_reduce && w.muldiv > 0.0 then begin
      let moved = w.muldiv *. K.strength_reduce_moved in
      w.muldiv <- w.muldiv -. moved;
      w.alu <- w.alu +. moved;
      w.pressure <- w.pressure +. 0.5
    end;
    if on ctx F.align_loops && b.is_loop_header then
      w.overhead <- Float.max 0.0 (w.overhead -. 0.05)
  end

let apply_branches ctx (b : Peak_ir.Features.block) w =
  if w.branches > 0.0 then begin
    (* if-conversion first: a converted branch leaves nothing for the
       layout/prediction flags to improve *)
    let convertible =
      on ctx F.if_conversion && (not b.is_loop_header)
      && w.alu +. w.muldiv <= K.ifcvt_max_ops
      && w.mem <= 2.0
    in
    if convertible then begin
      w.branches <- 0.0;
      w.alu <- w.alu +. K.ifcvt_alu_cost;
      w.mispredict <- 0.0;
      if on ctx F.if_conversion2 then w.alu <- Float.max 0.0 (w.alu -. 0.5)
    end
    else begin
      if on ctx F.guess_branch_probability then
        w.mispredict <- w.mispredict *. K.guess_branch_cut;
      if on ctx F.reorder_blocks && on ctx F.guess_branch_probability then begin
        w.mispredict <- w.mispredict *. K.reorder_blocks_cut;
        w.overhead <- Float.max 0.0 (w.overhead -. 0.05)
      end;
      if on ctx F.thread_jumps then begin
        w.overhead <- w.overhead *. 0.97;
        w.mispredict <- w.mispredict *. 0.97
      end;
      if on ctx F.delayed_branch && ctx.machine.branch_penalty <= 5.0 then
        w.overhead <- Float.max 0.0 (w.overhead -. 0.4);
      if on ctx F.align_jumps then w.overhead <- Float.max 0.0 (w.overhead -. 0.01)
    end
  end

let apply_scheduling ctx w =
  if on ctx F.schedule_insns then begin
    w.ilp <- w.ilp +. (K.sched1_ilp *. ctx.amplify);
    w.pressure <- w.pressure +. K.sched1_pressure;
    if on ctx F.sched_interblock then w.ilp <- w.ilp +. K.interblock_ilp;
    if on ctx F.sched_spec then begin
      w.ilp <- w.ilp +. K.spec_ilp;
      w.mem <- w.mem *. 1.02 (* speculative loads sometimes waste traffic *)
    end
  end;
  if on ctx F.schedule_insns2 then begin
    w.ilp <- w.ilp +. K.sched2_ilp;
    w.pressure <- w.pressure +. K.sched2_pressure
  end;
  if on ctx F.rename_registers then w.ilp <- w.ilp +. K.rename_ilp

let apply_strict_aliasing ctx (b : Peak_ir.Features.block) w =
  let n_bases = List.length b.bases in
  let n_pointers = List.length b.pointer_bases in
  if on ctx F.strict_aliasing && n_bases >= 2 then begin
    (* type-based disambiguation removes redundant reloads and lets loads
       move; with pointer-heavy code the disambiguated values live in
       registers across the ambiguous region, extending live ranges —
       the ART mechanism of Section 5.2 *)
    w.mem <- w.mem *. K.strict_alias_mem;
    w.ilp <- w.ilp +. K.strict_alias_ilp;
    w.pressure <- w.pressure +. (K.strict_alias_pressure_per_pointer *. float_of_int n_pointers)
  end

let apply_calls_and_alignment ctx (b : Peak_ir.Features.block) w =
  let has_calls = b.impure_calls > 0 || b.transcendental > 0 in
  if on ctx F.optimize_sibling_calls && has_calls then
    w.overhead <- Float.max 0.0 (w.overhead -. 0.1);
  if on ctx F.inline_functions && has_calls then begin
    w.overhead <- Float.max 0.0 (w.overhead -. K.inline_overhead_cut);
    w.pressure <- w.pressure +. K.inline_pressure
  end;
  if on ctx F.align_functions then w.overhead <- w.overhead *. 0.995;
  if on ctx F.align_labels then w.overhead <- w.overhead +. 0.005
(* label alignment pads straightline code: a (tiny) net loss *)

let available_registers ctx =
  let base = ctx.machine.int_registers in
  let base = if on ctx F.omit_frame_pointer then base + 1 else base in
  if on ctx F.caller_saves then base + 1 else base

let spill_traffic ctx w =
  let regs = float_of_int (available_registers ctx) in
  let excess = Float.max 0.0 (w.pressure -. regs) in
  if excess = 0.0 then 0.0
  else begin
    (* Quadratic in the excess: allocators shed a little pressure almost
       for free (rematerialization, coldest-first spilling), but traffic
       explodes once many hot values fight for the file.  Busier blocks
       re-touch spilled values more often. *)
    let density = Float.min 2.0 (Float.max 0.5 ((w.alu +. w.muldiv +. w.mem) /. 6.0)) in
    K.spill_coefficient *. excess *. excess /. regs *. density
  end

let optimize_block ctx (b : Peak_ir.Features.block) =
  let w = work_of_block b in
  apply_scalar_cleanups ctx w;
  apply_cse ctx b w;
  apply_loop ctx b w;
  apply_branches ctx b w;
  apply_scheduling ctx w;
  apply_strict_aliasing ctx b w;
  apply_calls_and_alignment ctx b w;
  let spill = spill_traffic ctx w in
  ( {
      Cost.alu = w.alu;
      muldiv = w.muldiv;
      transcendental = w.transcendental;
      mem = w.mem;
      spill_mem = spill;
      branches = w.branches;
      mispredict_rate = w.mispredict;
      ilp = w.ilp;
      overhead = w.overhead;
    },
    w.pressure )

let optimize machine ts config =
  let ctx = make_ctx machine ts config in
  Array.map (fun b -> fst (optimize_block ctx b)) ts.Peak_ir.Features.blocks

let effective_pressure machine ts config block_id =
  let ctx = make_ctx machine ts config in
  snd (optimize_block ctx ts.Peak_ir.Features.blocks.(block_id))

(* Machine-conditioned response signature: how this TS reacts to the
   flags whose profitability the paper ties to the register file
   (Section 5.2).  The same program gets different signatures on a
   SPARC and a Pentium IV, which is exactly what cross-machine
   similarity must distinguish. *)
let machine_signature_dims =
  [
    "o3_pressure_ratio";
    "o3_spill_block_share";
    "aliasing_pressure_delta";
    "scheduling_pressure_delta";
    "o3_ilp";
  ]

let machine_signature machine ts =
  let blocks = ts.Peak_ir.Features.blocks in
  let n = Array.length blocks in
  if n = 0 then Array.make (List.length machine_signature_dims) 0.0
  else begin
    let fn = float_of_int n in
    let run config =
      let ctx = make_ctx machine ts config in
      let regs = float_of_int (available_registers ctx) in
      let outs = Array.map (optimize_block ctx) blocks in
      let mean_p = Array.fold_left (fun acc (_, p) -> acc +. p) 0.0 outs /. fn in
      let spills =
        Array.fold_left (fun acc (_, p) -> if p > regs then acc + 1 else acc) 0 outs
      in
      let mean_ilp =
        Array.fold_left (fun acc (w, _) -> acc +. w.Cost.ilp) 0.0 outs /. fn
      in
      (mean_p /. regs, float_of_int spills /. fn, mean_ilp)
    in
    let off f = Optconfig.disable Optconfig.o3 f in
    let p3, s3, ilp3 = run Optconfig.o3 in
    let pa, _, _ = run (off F.strict_aliasing) in
    let ps, _, _ = run (off F.schedule_insns) in
    [| p3; s3; p3 -. pa; p3 -. ps; ilp3 |]
  end
