(** Machine descriptions.

    The paper evaluates on a SPARC II and a Pentium IV; the decisive
    architectural difference it discusses (Section 5.2) is the register
    file: the Pentium IV's 8 general-purpose registers make it intolerant
    of the register pressure that strict aliasing induces, while the
    SPARC's windowed file absorbs it.  These descriptions capture that
    plus the cache hierarchy and operation latencies the cost model
    prices against. *)

type t = {
  name : string;
  clock_ghz : float;
  int_registers : int;
  fp_registers : int;
  l1_bytes : int;
  l1_line : int;
  l1_assoc : int;
  l1_hit_cycles : float;
  l2_bytes : int;
  l2_line : int;
  l2_assoc : int;
  l2_hit_cycles : float;
  mem_cycles : float;  (** Main-memory access latency. *)
  branch_penalty : float;  (** Misprediction cost in cycles. *)
  alu_cycles : float;
  muldiv_cycles : float;
  transcendental_cycles : float;
  issue_width : int;  (** Superscalar issue slots per cycle. *)
  noise_sigma : float;  (** Relative measurement noise (σ/mean). *)
  spike_probability : float;  (** Chance of an interrupt-like outlier. *)
}

(* 450 MHz UltraSPARC II: modest clock, short pipeline (cheap branches),
   register windows modeled as a large effective register file, 4 MB
   off-chip L2. *)
let sparc2 =
  {
    name = "SPARC II";
    clock_ghz = 0.45;
    int_registers = 24;
    fp_registers = 32;
    l1_bytes = 16 * 1024;
    l1_line = 32;
    l1_assoc = 1;
    l1_hit_cycles = 1.0;
    l2_bytes = 4 * 1024 * 1024;
    l2_line = 64;
    l2_assoc = 1;
    l2_hit_cycles = 10.0;
    mem_cycles = 80.0;
    branch_penalty = 4.0;
    alu_cycles = 1.0;
    muldiv_cycles = 6.0;
    transcendental_cycles = 22.0;
    issue_width = 2;
    noise_sigma = 0.008;
    spike_probability = 0.004;
  }

(* 2 GHz Pentium 4: deep pipeline (expensive branch misses), 8 GPRs /
   8 x87-style FP registers, small fast L1, 512 KB L2. *)
let pentium4 =
  {
    name = "Pentium IV";
    clock_ghz = 2.0;
    int_registers = 8;
    fp_registers = 8;
    l1_bytes = 8 * 1024;
    l1_line = 64;
    l1_assoc = 4;
    l1_hit_cycles = 2.0;
    l2_bytes = 512 * 1024;
    l2_line = 64;
    l2_assoc = 8;
    l2_hit_cycles = 18.0;
    mem_cycles = 200.0;
    branch_penalty = 20.0;
    alu_cycles = 0.5;
    muldiv_cycles = 4.0;
    transcendental_cycles = 40.0;
    issue_width = 3;
    noise_sigma = 0.012;
    spike_probability = 0.006;
  }

let all = [ sparc2; pentium4 ]

let by_name name =
  List.find_opt (fun m -> String.lowercase_ascii m.name = String.lowercase_ascii name) all

let of_string name =
  match (by_name name, String.lowercase_ascii name) with
  | Some m, _ -> Ok m
  | None, ("sparc2" | "sparc") -> Ok sparc2
  | None, ("pentium4" | "p4") -> Ok pentium4
  | None, _ -> Error (Printf.sprintf "unknown machine %s (sparc2 | pentium4)" name)

let seconds_of_cycles t cycles = cycles /. (t.clock_ghz *. 1e9)
