(** MCF's [primal_bea_mpp] tuning section.

    The simplex pricing loop: scan a block of arcs, compute each eligible
    arc's reduced cost, and collect negative ones into the candidate
    basket.  The costs and node potentials change between invocations as
    the simplex iterates — the trace declares those arrays mutated, which
    is exactly what defeats the run-time-constant rule and pushes the
    consultant to RBR (Table 1: 105K invocations, scaled 1/100). *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let arcs = 512
let basket_cap = 64

let ts =
  B.ts ~name:"primal_bea_mpp" ~params:[ "group_size"; "group_off"; "phase" ]
    ~arrays:
      [
        ("cost", arcs); ("tail_pot", arcs); ("head_pot", arcs); ("ident", arcs);
        ("basket", basket_cap);
      ]
    ~locals:[ "i"; "red_cost"; "nb"; "t" ]
    B.
      [
        "nb" := c 0.0;
        for_ "i" ~lo:(v "group_off") ~hi:(v "group_off" + v "group_size")
          [
            when_
              (idx "ident" (v "i") > c 0.0)
              [
                "red_cost" := idx "cost" (v "i") - idx "tail_pot" (v "i") + idx "head_pot" (v "i");
                when_
                  (v "red_cost" < c 0.0)
                  [
                    when_
                      (v "nb" < c (float_of_int basket_cap))
                      [
                        store "basket" (v "nb") (v "red_cost");
                        "nb" := v "nb" + ci 1;
                      ];
                  ];
              ];
          ];
        (* basket postprocessing, as in the real pricing step *)
        when_ (v "nb" > c 0.0) [ store "basket" (c 0.0) (idx "basket" (c 0.0) * c 1.0) ];
        when_ (v "nb" > c 16.0) [ "nb" := v "nb" - c 0.0 ];
        when_ (v "nb" >= c (float_of_int basket_cap)) [ "nb" := c (float_of_int basket_cap) ];
        when_ (v "phase" > c 0.5) [ "t" := v "nb" * c 2.0 ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 1050 in
  let rng = R.create ~seed in
  let pre = R.copy rng in
  let sizes = Array.init length (fun _ -> float_of_int (50 + R.int pre 200)) in
  let offs = Array.init length (fun i -> float_of_int (R.int pre (arcs - int_of_float sizes.(i)))) in
  let mutation = R.copy rng in
  let init env =
    let rng = R.copy rng in
    Benchmark.fill_random rng 0.0 10.0 (Interp.get_array env "cost");
    Benchmark.fill_random rng 0.0 8.0 (Interp.get_array env "tail_pot");
    Benchmark.fill_random rng 0.0 4.0 (Interp.get_array env "head_pot");
    let ident = Interp.get_array env "ident" in
    Array.iteri (fun i _ -> ident.(i) <- (if R.float rng < 0.7 then 1.0 else 0.0)) ident
  in
  let group_size = Interp.handle "group_size" and group_off = Interp.handle "group_off" in
  let phase = Interp.handle "phase" in
  let cost = Interp.array_handle "cost" and ident = Interp.array_handle "ident" in
  let setup i env =
    Interp.set_handle group_size env sizes.(i);
    Interp.set_handle group_off env offs.(i);
    Interp.set_handle phase env (if i mod 3 = 0 then 1.0 else 0.0);
    (* the simplex step reprices a few arcs between invocations *)
    let cost = Interp.get_array_handle cost env in
    let ident = Interp.get_array_handle ident env in
    for _ = 1 to 16 do
      let j = R.int mutation arcs in
      cost.(j) <- R.float mutation *. 10.0;
      if R.float mutation < 0.1 then ident.(j) <- (if ident.(j) = 0.0 then 1.0 else 0.0)
    done
  in
  Trace.make ~name:"mcf" ~length ~init ~mutated_arrays:[ "cost"; "ident" ] setup

let benchmark =
  {
    Benchmark.name = "MCF";
    ts_name = "primal_bea_mpp";
    kind = Benchmark.Integer;
    ts;
    paper_invocations = "105K";
    paper_method = "RBR";
    scale = "1/100";
    time_share = 0.75;
    trace;
  }
