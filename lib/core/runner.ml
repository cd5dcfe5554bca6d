open Peak_util
open Peak_ir
open Peak_machine

type sample = {
  index : int;
  time : float;
  counts : int array;
  context : float array;
}

type failure = Crashed | Hung

type failure_info = { failure : failure; config : string; invocation : int }

exception Failed of failure_info

let () =
  Printexc.register_printer (function
    | Failed { failure; config; invocation } ->
        Some
          (Printf.sprintf "Runner.Failed(%s, config %s, invocation %d)"
             (match failure with Crashed -> "crashed" | Hung -> "hung")
             config invocation)
    | _ -> None)

type t = {
  tape : Tape.t;
  tsec : Tsection.t;
  length : int;
  machine : Machine.t;
  memsys : Memsys.t;
  noise : Noise.t;
  perturb_rng : Rng.t;
  context_switch_rate : float;
  timer_overhead : float;
  save_words : int;
  faults : Peak_sim.Fault.t option;
  fault_attempt : int;
  invocation_budget : float;
  fault_keys : (Peak_compiler.Optconfig.t, string) Hashtbl.t;
  mutable pos : int;
  mutable passes : int;
  mutable invocations : int;
  mutable tuning_cycles : float;
  mutable initialized : bool;
}

let of_tape ?(seed = 42) ?(context_switch_rate = 0.02) ?faults ?(fault_attempt = 0)
    ?invocation_budget tape machine =
  (* fold the trace identity into the seed: distinct benchmarks must not
     share a measurement-noise stream *)
  let root = Rng.create ~seed:(seed + (Hashtbl.hash (Tape.name tape) * 7919)) in
  let noise_rng = Rng.split root in
  let perturb_rng = Rng.split root in
  (* a noise-free machine (used by deterministic evaluation) also turns
     off the memory system's conflict jitter *)
  let memsys_rng =
    if machine.Machine.noise_sigma > 0.0 then Some (Rng.split root) else None
  in
  (* The watchdog that turns an injected hang into a charged, typed
     failure; without faults the default budget is infinite, so the
     no-fault timing path is bit-identical to the pre-fault runner. *)
  let invocation_budget =
    match (invocation_budget, faults) with
    | Some b, _ ->
        if b <= 0.0 then invalid_arg "Runner: invocation_budget must be positive";
        b
    | None, Some _ -> 1e8
    | None, None -> infinity
  in
  let tsec = Tape.tsection tape in
  (* the extent each base slot touches: a whole array, or the one word
     behind a pointer *)
  let bytes =
    Array.map
      (fun base ->
        match List.assoc_opt base tsec.Tsection.ts.Peak_ir.Types.arrays with
        | Some n -> 8 * n
        | None -> 8)
      tsec.Tsection.bases
  in
  {
    tape;
    tsec;
    length = Tape.length tape;
    machine;
    memsys = Memsys.create ?rng:memsys_rng machine ~bytes;
    noise = Noise.create ~rng:noise_rng machine;
    perturb_rng;
    context_switch_rate;
    timer_overhead = 40.0;
    save_words = (Tsection.save_restore_bytes tsec + 7) / 8;
    faults;
    fault_attempt;
    invocation_budget;
    fault_keys = Hashtbl.create 8;
    pos = 0;
    passes = 0;
    invocations = 0;
    tuning_cycles = 0.0;
    initialized = false;
  }

let create ?seed ?context_switch_rate ?faults ?fault_attempt ?invocation_budget tsec trace
    machine =
  of_tape ?seed ?context_switch_rate ?faults ?fault_attempt ?invocation_budget
    (Tape.of_trace tsec trace) machine

let machine t = t.machine
let tsection t = t.tsec

(* Move to the next invocation: handle pass wrap, the occasional
   cache-flushing perturbation, and the tape's set-up of the ordinal
   (program init at a pass boundary, then the trace's setup).  At a
   zero rate no draw can flush, so none is made: the perturbation
   stream is split off for this alone, and no other stream moves. *)
let advance t =
  if (not t.initialized) || t.pos >= t.length then begin
    Memsys.flush t.memsys;
    if t.initialized then t.passes <- t.passes + 1 else t.passes <- 1;
    t.initialized <- true;
    t.pos <- 0
  end;
  if t.context_switch_rate > 0.0 && Rng.float t.perturb_rng < t.context_switch_rate then
    Memsys.flush t.memsys;
  Tape.seek t.tape t.invocations;
  t.invocations <- t.invocations + 1;
  t.pos <- t.pos + 1

(* The ordinal [advance] just set up: kept, or lent to a whole-pass
   reader that keeps nothing past the next invocation. *)
let interp_result t = Tape.result t.tape (t.invocations - 1)
let lent_result t = Tape.lend t.tape (t.invocations - 1)

let fault_key t (version : Peak_compiler.Version.t) =
  let config = version.Peak_compiler.Version.config in
  match Hashtbl.find_opt t.fault_keys config with
  | Some k -> k
  | None ->
      let k = Peak_compiler.Optconfig.digest config in
      Hashtbl.add t.fault_keys config k;
      k

let fail t failure version =
  let config = fault_key t version in
  let kind = match failure with Crashed -> "crashed" | Hung -> "hung" in
  Peak_obs.count ("runner." ^ kind);
  if Peak_obs.active () then
    Peak_obs.instant ~cat:"runner"
      ~args:[ ("config", config); ("invocation", string_of_int (t.invocations - 1)) ]
      ("runner:" ^ kind);
  raise (Failed { failure; config; invocation = t.invocations - 1 })

let hang t version =
  (* the watchdog kills the run only after waiting out the budget; the
     wasted wall-clock is real tuning time *)
  if Float.is_finite t.invocation_budget then
    t.tuning_cycles <- t.tuning_cycles +. t.invocation_budget;
  fail t Hung version

(* The memory system's cycles for the already-set-up invocation.  Every
   version pays the same: the charge reads only the interpreter's touch
   counts, slot by slot (and moves the residency state). *)
let memory_cycles t (r : Interp.result) = Memsys.charge t.memsys r.Interp.touches

(* Time one execution of [version] on the already-set-up invocation. *)
let time_execution t version (r : Interp.result) =
  let base = Peak_compiler.Version.invocation_cycles version ~counts:r.Interp.block_counts in
  let mem = memory_cycles t r in
  let time = Noise.apply t.noise (base +. mem) in
  let time =
    match t.faults with
    | None -> time
    | Some plan ->
        time
        *. Peak_sim.Fault.noise_factor plan ~key:(fault_key t version)
             ~invocation:(t.invocations - 1)
  in
  (* the step budget: an execution that outlives it counts as hung even
     without an injected fault *)
  if time > t.invocation_budget then hang t version;
  t.tuning_cycles <- t.tuning_cycles +. time +. t.timer_overhead;
  time

(* Consult the fault plan about the invocation that [advance] just
   started.  A crash (injected or transient) still pays for the doomed
   execution — the version ran and died, and the harness spent that time
   watching it — so the ledger and the memory-system state advance
   exactly as for a completed run before the typed failure surfaces. *)
let fault_check t version (r : Interp.result) =
  match t.faults with
  | None -> ()
  | Some plan -> (
      match
        Peak_sim.Fault.exec_failure plan ~key:(fault_key t version)
          ~attempt:t.fault_attempt ~invocation:(t.invocations - 1)
      with
      | None -> ()
      | Some (Peak_sim.Fault.Crash | Peak_sim.Fault.Transient) ->
          let (_ : float) = time_execution t version r in
          fail t Crashed version
      | Some Peak_sim.Fault.Hang -> hang t version)

let read_context t sources = Tape.context t.tape (t.invocations - 1) sources

(* [step] for the profile's whole pass: the context goes to a row of the
   caller's array, the counters stay lent, and no sample is built.  The
   same calls in the same order as [step], so every draw lands alike. *)
let step_lent t version ~context row off =
  advance t;
  let k = Array.length context in
  if k > 0 then begin
    Tape.context_into t.tape (t.invocations - 1) context row off;
    t.tuning_cycles <- t.tuning_cycles +. (4.0 *. float_of_int k)
  end;
  let r = lent_result t in
  fault_check t version r;
  time_execution t version r

let lent_counts t = (lent_result t).Interp.block_counts

let step ?(context = []) t version =
  advance t;
  let ctx = read_context t context in
  if context <> [] then begin
    (* context-read instrumentation: a few cycles per variable *)
    t.tuning_cycles <- t.tuning_cycles +. (4.0 *. float_of_int (List.length context))
  end;
  let r = interp_result t in
  fault_check t version r;
  let time = time_execution t version r in
  { index = t.pos - 1; time; counts = r.Interp.block_counts; context = ctx }

(* Like [step], but the version is chosen after the invocation's context
   is known — the dynamic swapping of the adaptive scenario. *)
let step_choose ~context t choose =
  advance t;
  let ctx = read_context t context in
  if context <> [] then
    t.tuning_cycles <- t.tuning_cycles +. (4.0 *. float_of_int (List.length context));
  let version = choose ctx in
  let r = interp_result t in
  fault_check t version r;
  let time = time_execution t version r in
  { index = t.pos - 1; time; counts = r.Interp.block_counts; context = ctx }

(* Cycles to copy the modified-input set once (a load+store per word).
   The payload is measured after the invocation ran, so symbolic
   store spans (the Section 2.4.2 range-analysis optimization) shrink the
   copy to the cells the invocation can actually write.  [use_ranges]
   exists for the ablation that runs without the optimization. *)
let copy_cycles ?(use_ranges = true) t =
  let words =
    if use_ranges then (Tape.payload t.tape (t.invocations - 1) + 7) / 8 else t.save_words
  in
  float_of_int words *. 2.0 *. t.machine.Machine.l1_hit_cycles

let step_pair ?(improved = true) ?(use_ranges = true) t ~base ~experimental =
  advance t;
  let r = interp_result t in
  fault_check t experimental r;
  let charge c = t.tuning_cycles <- t.tuning_cycles +. c in
  let copy_cycles t = copy_cycles ~use_ranges t in
  charge (copy_cycles t);
  (* save *)
  if improved then begin
    (* precondition execution: bring the data into the cache; its cost is
       that of a stripped version, charged but not timed *)
    let pre_cycles =
      0.6 *. Peak_compiler.Version.invocation_cycles base ~counts:r.Interp.block_counts
    in
    let mem = memory_cycles t r in
    charge (pre_cycles +. mem);
    charge (copy_cycles t) (* restore *)
  end;
  let first_is_base = (not improved) || t.invocations mod 2 = 0 in
  let v1, v2 = if first_is_base then (base, experimental) else (experimental, base) in
  let t1 = time_execution t v1 r in
  charge (copy_cycles t);
  (* restore between the two timed runs *)
  let t2 = time_execution t v2 r in
  if first_is_base then (t1, t2) else (t2, t1)

(* Batched re-execution (Section 2.4.2's "combination of a number of
   experimental runs into a batch"): one invocation rates the base and k
   experimental versions, amortizing the save and the preconditioning
   over the whole batch — each extra version costs one restore and one
   timed execution. *)
let step_batch ?(use_ranges = true) t ~base ~experimentals =
  advance t;
  let r = interp_result t in
  List.iter (fun v -> fault_check t v r) experimentals;
  let charge c = t.tuning_cycles <- t.tuning_cycles +. c in
  let copy = copy_cycles ~use_ranges t in
  charge copy;
  (* save *)
  let pre_cycles =
    0.6 *. Peak_compiler.Version.invocation_cycles base ~counts:r.Interp.block_counts
  in
  let mem = memory_cycles t r in
  charge (pre_cycles +. mem);
  charge copy;
  (* restore before the first timed run *)
  let t_base = time_execution t base r in
  let t_exps =
    List.map
      (fun version ->
        charge copy;
        time_execution t version r)
      experimentals
  in
  (t_base, t_exps)

let charge_overhead t c = t.tuning_cycles <- t.tuning_cycles +. c

(* Invocations left in the current pass (a whole pass when none is
   under way). *)
let rest_of_pass t =
  let remaining = t.length - t.pos in
  if t.initialized && remaining > 0 then remaining else t.length

let run_full_pass t version =
  let total = ref 0.0 in
  for _ = 1 to rest_of_pass t do
    let s = step t version in
    total := !total +. s.time
  done;
  !total

(* Eq. 1's two version-independent terms over the same invocations
   [run_full_pass] would time: one interpretation each, its counts
   summed into [counts] and its memory charge into [mem]. *)
let pass_terms t =
  let counts = Array.make (Array.length t.tsec.Tsection.features.Features.blocks) 0 in
  let mem = ref 0.0 in
  for _ = 1 to rest_of_pass t do
    advance t;
    let r = lent_result t in
    let c = r.Interp.block_counts in
    for b = 0 to Array.length c - 1 do
      counts.(b) <- counts.(b) + c.(b)
    done;
    mem := !mem +. memory_cycles t r
  done;
  (counts, !mem)

(* One validation run: execute the version on the next invocation and
   digest the observable outcome (block-entry counts — the interpreter's
   trajectory — plus the invocation index).  The interpreter is
   version-independent, so at equal invocation ordinals every healthy
   version yields the same digest on every runner seed; a fault plan
   marks a miscompiled version by corrupting its digest, which the
   driver's differential oracle then catches against the base version's.
   The run is charged like any other timed execution, and crash/hang
   faults fire through {!step} as usual. *)
let output_digest t version =
  let s = step t version in
  let h = ref 0xcbf29ce484222325L in
  let fold i =
    h := Int64.mul (Int64.logxor !h (Int64.of_int i)) 0x100000001b3L
  in
  fold s.index;
  Array.iter fold s.counts;
  let miscompiled =
    match t.faults with
    | None -> false
    | Some plan -> Peak_sim.Fault.miscompiled plan (fault_key t version)
  in
  if miscompiled then Int64.lognot !h else !h

let invocations_consumed t = t.invocations
let passes_started t = t.passes
let tuning_cycles t = t.tuning_cycles
let tuning_seconds t = Machine.seconds_of_cycles t.machine t.tuning_cycles
let interp_steps_hint t = Tape.steps t.tape
