(** Machine descriptions.

    The paper evaluates on a SPARC II and a Pentium IV; the decisive
    architectural difference it discusses (Section 5.2) is the register
    file: the Pentium IV's 8 general-purpose registers make it intolerant
    of the register pressure that strict aliasing induces, while the
    SPARC's windowed file absorbs it.  These descriptions capture that
    plus the cache hierarchy, operation latencies and measurement-noise
    characteristics the cost and noise models price against. *)

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

val sparc2 : t
(** 450 MHz UltraSPARC II: modest clock, short pipeline, register
    windows (large effective register file), 4 MB off-chip L2. *)

val pentium4 : t
(** 2 GHz Pentium 4: deep pipeline, 8 general-purpose registers, small
    fast L1, 512 KB L2. *)

val all : t list

val by_name : string -> t option
(** Case-insensitive lookup by the display name. *)

val of_string : string -> (t, string) result
(** {!by_name}, also accepting the CLI spellings [sparc2]/[sparc] and
    [pentium4]/[p4]; the error is a one-line ["unknown machine ..."]
    message. *)

val seconds_of_cycles : t -> float -> float
