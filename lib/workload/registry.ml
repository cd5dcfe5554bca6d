(** All benchmarks, in Table 1's order (integer codes first). *)

let integer =
  [
    Int_bzip2.benchmark;
    Int_crafty.benchmark;
    Int_gzip.benchmark;
    Int_mcf.benchmark;
    Int_twolf.benchmark;
    Int_vortex.benchmark;
  ]

let floating_point =
  [
    Fp_applu.benchmark;
    Fp_apsi.benchmark;
    Fp_art.benchmark;
    Fp_mgrid.benchmark;
    Fp_equake.benchmark;
    Fp_mesa.benchmark;
    Fp_swim.benchmark;
    Fp_wupwise.benchmark;
  ]

let all = integer @ floating_point

(** The four benchmarks of the paper's Figure 7 performance study. *)
let figure7 =
  [ Fp_swim.benchmark; Fp_mgrid.benchmark; Fp_art.benchmark; Fp_equake.benchmark ]

let by_name name =
  List.find_opt
    (fun b -> String.lowercase_ascii b.Benchmark.name = String.lowercase_ascii name)
    all

let of_string name =
  match by_name name with
  | Some b -> Ok b
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %s (valid: %s)" name
           (String.concat ", "
              (List.sort String.compare (List.map (fun b -> b.Benchmark.name) all))))
