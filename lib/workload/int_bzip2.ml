(** BZIP2's [fullGtU] tuning section.

    The suffix-comparison loop of the block sort: compare two positions
    of the block until the first difference (or a step bound).  Trip
    counts depend entirely on the data at the two offsets — the
    archetypal irregular integer section that forces RBR (Table 1:
    24.2M invocations, scaled 1/1000 here).

    The block data is built from repeating runs so that a fraction of
    comparisons are long, like the mid-sort states of the real code. *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let block_size = 4096
let span = 2048 (* offsets are drawn below this; k stays within bounds *)

let ts =
  B.ts ~name:"fullGtU" ~params:[ "i1"; "i2"; "limit"; "budget" ]
    ~arrays:[ ("block", block_size); ("quadrant", block_size) ]
    ~locals:[ "k"; "r"; "running" ]
    B.
      [
        "k" := c 0.0;
        "r" := c 0.0;
        "running" := c 1.0;
        while_
          (v "running" = c 1.0)
          [
            if_
              (idx "block" (v "i1" + v "k") <> idx "block" (v "i2" + v "k"))
              [
                "r" := idx "block" (v "i1" + v "k") - idx "block" (v "i2" + v "k");
                "running" := c 0.0;
              ]
              [
                if_
                  (idx "quadrant" (v "i1" + v "k") <> idx "quadrant" (v "i2" + v "k"))
                  [
                    "r" := idx "quadrant" (v "i1" + v "k") - idx "quadrant" (v "i2" + v "k");
                    "running" := c 0.0;
                  ]
                  [
                    "k" := v "k" + ci 1;
                    when_ (v "k" >= v "limit") [ "running" := c 0.0 ];
                  ];
              ];
          ];
        (* post-comparison bookkeeping, as in the real fullGtU: charge the
           work budget and normalize the verdict; each conditional's
           outcome depends on different data *)
        "budget" := v "budget" - v "k";
        when_ (v "budget" < c 0.0) [ "budget" := c 0.0 ];
        when_ (v "r" > c 0.0) [ "r" := c 1.0 ];
        when_ (v "k" > c 8.0) [ "r" := v "r" + v "r" ];
        when_ (v "k" > c 24.0) [ "r" := v "r" - (v "r" / c 2.0) ];
        when_ (idx "quadrant" (v "i1") = c 1.0) [ "r" := v "r" + c 0.0 ];
        when_ (idx "quadrant" (v "i2") = c 1.0) [ "r" := v "r" * c 1.0 ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 24200 in
  let rng = R.create ~seed in
  let pre = R.copy rng in
  let i1s = Array.init length (fun _ -> float_of_int (R.int pre span)) in
  let i2s =
    Array.init length (fun i ->
        (* a third of comparisons land on period-aligned offsets, giving
           long matches; the rest differ quickly *)
        if R.float pre < 0.33 then
          Float.rem (i1s.(i) +. 16.0) (float_of_int span)
        else float_of_int (R.int pre span))
  in
  let init env =
    let rng = R.copy rng in
    let block = Interp.get_array env "block" in
    (* period-16 base pattern with sparse noise: aligned offsets match for
       long stretches, unaligned ones diverge fast *)
    let pattern = Array.init 16 (fun _ -> float_of_int (R.int rng 4)) in
    Array.iteri
      (fun i _ ->
        block.(i) <-
          (if R.float rng < 0.02 then float_of_int (R.int rng 4) else pattern.(i mod 16)))
      block;
    let quadrant = Interp.get_array env "quadrant" in
    Array.iteri (fun i _ -> quadrant.(i) <- float_of_int (R.int rng 2)) quadrant
  in
  let budgets = Array.init length (fun _ -> float_of_int (R.int pre 64)) in
  let i1 = Interp.handle "i1" and i2 = Interp.handle "i2" in
  let limit = Interp.handle "limit" and budget = Interp.handle "budget" in
  let setup i env =
    Interp.set_handle i1 env i1s.(i);
    Interp.set_handle i2 env i2s.(i);
    Interp.set_handle limit env 48.0;
    Interp.set_handle budget env budgets.(i)
  in
  Trace.make ~name:"bzip2" ~length ~init setup

let benchmark =
  {
    Benchmark.name = "BZIP2";
    ts_name = "fullGtU";
    kind = Benchmark.Integer;
    ts;
    paper_invocations = "24.2M";
    paper_method = "RBR";
    scale = "1/1000";
    time_share = 0.55;
    trace;
  }
