(** ART's [match] tuning section.

    The adaptive-resonance F1-layer match pass, written the way the C
    original is: through pointers.  Three disambiguatable pointers are
    live across the hot loop — the structure behind the paper's Section
    5.2 finding that [-fstrict-aliasing] devastates ART on the
    register-starved Pentium IV and helps it on SPARC II.

    Rating-wise: the continuous vigilance parameter makes every
    invocation a fresh context (no CBR), and the data-dependent
    conditionals give the section more independent count components than
    the MBR model tolerates — so the consultant lands on RBR, matching
    Table 1 (250 invocations). *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let numf1s = 400
let f1_size = 2048

let ts =
  B.ts ~name:"match" ~params:[ "numf1s"; "rho"; "off"; "conv" ]
    ~arrays:[ ("f1", f1_size); ("y", f1_size); ("w", f1_size) ]
    ~pointers:[ ("bus", "bus_v"); ("tds", "tds_v"); ("tsum", "tsum_v") ]
    ~locals:[ "i"; "t"; "winner"; "iter"; "bus_v"; "tds_v"; "tsum_v" ]
    B.
      [
        "winner" := c (-1.0);
        ptr_store "tsum" (c 0.0);
        for_ "i" ~lo:(ci 0) ~hi:(v "numf1s")
          [
            "t" := (idx "f1" (v "i" + v "off") * deref "bus") + deref "tds";
            if_
              (v "t" > v "rho")
              [
                store "y" (v "i") (v "t");
                ptr_store "tsum" (deref "tsum" + (v "t" * deref "bus"));
              ]
              [ store "y" (v "i") (c 0.0) ];
            when_ (idx "w" (v "i" + v "off") > v "t") [ "winner" := v "i" ];
          ];
        (* vigilance refinement: data-dependent trip count *)
        "iter" := c 0.0;
        while_
          (and_ (deref "tsum" > v "conv") (v "iter" < c 24.0))
          [
            ptr_store "tsum" ((deref "tsum" * c 0.82) - (c 0.01 * deref "bus"));
            "iter" := v "iter" + ci 1;
          ];
        (* resonance bookkeeping, per the real match(): distinct data
           drives each conditional *)
        when_ (v "winner" >= c 0.0) [ store "y" (c 0.0) (idx "y" (c 0.0) + c 0.0) ];
        when_ (deref "tsum" > c 10.0) [ ptr_store "tds" (deref "tds" * c 0.99) ];
        when_ (v "iter" > c 12.0) [ "iter" := c 12.0 ];
        when_ (v "rho" > c 0.5) [ ptr_store "bus" (deref "bus" + c 0.0) ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 250 in
  let rng = R.create ~seed in
  (* per-invocation parameters, drawn up front for determinism *)
  let n = length in
  let pre = R.copy rng in
  let rhos = Array.init n (fun _ -> 0.2 +. (0.6 *. R.float pre)) in
  let offs = Array.init n (fun _ -> float_of_int (R.int pre (f1_size - numf1s))) in
  let convs = Array.init n (fun _ -> 0.5 +. (R.float pre *. 40.0)) in
  let init env =
    let rng = R.copy rng in
    Benchmark.fill_random rng 0.0 1.0 (Interp.get_array env "f1");
    Benchmark.fill_random rng 0.0 1.0 (Interp.get_array env "w");
    Interp.set_scalar env "numf1s" (float_of_int numf1s)
  in
  let rho = Interp.handle "rho" and off = Interp.handle "off" in
  let conv = Interp.handle "conv" and bus_v = Interp.handle "bus_v" in
  let tds_v = Interp.handle "tds_v" in
  let setup i env =
    Interp.set_handle rho env rhos.(i);
    Interp.set_handle off env offs.(i);
    Interp.set_handle conv env convs.(i);
    Interp.set_handle bus_v env 0.9;
    Interp.set_handle tds_v env 0.05
  in
  Trace.make ~name:"art" ~length ~init setup

let benchmark =
  {
    Benchmark.name = "ART";
    ts_name = "match";
    kind = Benchmark.Floating_point;
    ts;
    paper_invocations = "250";
    paper_method = "RBR";
    scale = "1/1";
    time_share = 0.95;
    trace;
  }
