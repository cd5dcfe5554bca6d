(** All benchmarks, in Table 1's order (integer codes first). *)

val integer : Benchmark.t list
(** BZIP2, CRAFTY, GZIP, MCF, TWOLF, VORTEX. *)

val floating_point : Benchmark.t list
(** APPLU, APSI, ART, MGRID, EQUAKE, MESA, SWIM, WUPWISE. *)

val all : Benchmark.t list

val figure7 : Benchmark.t list
(** The four benchmarks of the paper's Figure 7 performance study:
    SWIM, MGRID, ART, EQUAKE. *)

val by_name : string -> Benchmark.t option
(** Case-insensitive. *)

val of_string : string -> (Benchmark.t, string) result
(** {!by_name}; the error is a one-line ["unknown benchmark ..."]
    message listing the valid names, sorted. *)
