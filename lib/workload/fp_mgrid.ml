(** MGRID's [resid] tuning section.

    The 3D residual stencil of the multigrid V-cycle.  Each invocation
    runs at one grid level, and the level cycles 16 → 4 → 16 through the
    V-cycle, so the grid dimension [n] is a genuine context variable with
    several recurring values.  CBR is applicable but wasteful (the
    dominant context covers only a fraction of invocations); the counts
    of the loop nest's blocks are polynomial in [n], so the component
    model compresses them to four independent components — the paper's
    flagship MBR case. *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let max_n = 16
let max_n2 = max_n * max_n
let size = max_n * max_n * max_n

(* One V-cycle's worth of grid levels (down then up), with the extra
   coarse-level smoothing calls the real cycle performs. *)
let vcycle = [| 16; 12; 12; 8; 8; 6; 6; 4; 4; 4; 4; 6; 6; 8; 12; 16 |]

(* Full-multigrid warmup: the first part of the run works mostly on
   coarse grids before full V-cycles begin.  The drifting context mix is
   what makes the naive AVG rating unfair — windows taken early and late
   in the run measure different workloads. *)
let level_at ~length i =
  if i * 4 < length then vcycle.(i mod Array.length vcycle) |> min 8
  else vcycle.(i mod Array.length vcycle)

let ts =
  B.ts ~name:"resid" ~params:[ "n"; "a0"; "a1" ]
    ~arrays:[ ("u", size); ("rhs", size); ("r", size) ]
    ~locals:[ "i"; "j"; "k"; "t" ]
    B.
      [
        for_ "i" ~lo:(ci 1) ~hi:(v "n" - ci 1)
          [
            for_ "j" ~lo:(ci 1) ~hi:(v "n" - ci 1)
              [
                for_ "k" ~lo:(ci 1) ~hi:(v "n" - ci 1)
                  [
                    "t" := (((v "i" * ci max_n) + v "j") * ci max_n) + v "k";
                    store "r" (v "t")
                      (idx "rhs" (v "t")
                      - (v "a0" * idx "u" (v "t"))
                      - (v "a1"
                        * (idx "u" (v "t" - ci 1)
                          + idx "u" (v "t" + ci 1)
                          + idx "u" (v "t" - ci max_n)
                          + idx "u" (v "t" + ci max_n)
                          + idx "u" (v "t" - ci max_n2)
                          + idx "u" (v "t" + ci max_n2))));
                  ];
              ];
          ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 2410 in
  let rng = R.create ~seed in
  let init env =
    let rng = R.copy rng in
    Interp.set_scalar env "a0" (-8.0 /. 3.0);
    Interp.set_scalar env "a1" 0.0625;
    Benchmark.fill_random rng (-1.0) 1.0 (Interp.get_array env "u");
    Benchmark.fill_random rng (-1.0) 1.0 (Interp.get_array env "rhs")
  in
  let n = Interp.handle "n" in
  let setup i env = Interp.set_handle n env (float_of_int (level_at ~length i)) in
  Trace.make ~name:"mgrid" ~length ~init ~class_of:(fun i -> level_at ~length i) setup

let benchmark =
  {
    Benchmark.name = "MGRID";
    ts_name = "resid";
    kind = Benchmark.Floating_point;
    ts;
    paper_invocations = "2410";
    paper_method = "MBR";
    scale = "1/1";
    time_share = 0.80;
    trace;
  }
