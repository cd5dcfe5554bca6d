(** TWOLF's [new_dbox_a] tuning section.

    Bounding-box cost evaluation for a net after a tentative move: scan
    the net's terminals, maintain min/max in both axes, and accumulate
    the half-perimeter cost.  Net sizes and the min/max update pattern
    are placement-dependent — irregular, RBR (Table 1: 3.19M invocations,
    scaled 1/1000). *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let terms = 4096

let ts =
  B.ts ~name:"new_dbox_a" ~params:[ "nterms"; "off" ]
    ~arrays:[ ("xs", terms); ("ys", terms) ]
    ~locals:[ "t"; "xmin"; "xmax"; "ymin"; "ymax"; "cost" ]
    B.
      [
        "xmin" := c 100000.0;
        "xmax" := c (-100000.0);
        "ymin" := c 100000.0;
        "ymax" := c (-100000.0);
        for_ "t" ~lo:(ci 0) ~hi:(v "nterms")
          [
            if_
              (idx "xs" (v "t" + v "off") < v "xmin")
              [ "xmin" := idx "xs" (v "t" + v "off") ]
              [ when_ (idx "xs" (v "t" + v "off") > v "xmax")
                  [ "xmax" := idx "xs" (v "t" + v "off") ] ];
            if_
              (idx "ys" (v "t" + v "off") < v "ymin")
              [ "ymin" := idx "ys" (v "t" + v "off") ]
              [ when_ (idx "ys" (v "t" + v "off") > v "ymax")
                  [ "ymax" := idx "ys" (v "t" + v "off") ] ];
          ];
        "cost" := v "xmax" - v "xmin" + v "ymax" - v "ymin";
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 3190 in
  let rng = R.create ~seed in
  let pre = R.copy rng in
  let sizes = Array.init length (fun _ -> float_of_int (3 + R.int pre 60)) in
  let offs =
    Array.init length (fun i -> float_of_int (R.int pre (terms - int_of_float sizes.(i))))
  in
  let init env =
    let rng = R.copy rng in
    Benchmark.fill_random rng 0.0 1000.0 (Interp.get_array env "xs");
    Benchmark.fill_random rng 0.0 1000.0 (Interp.get_array env "ys")
  in
  let nterms = Interp.handle "nterms" and off = Interp.handle "off" in
  let setup i env =
    Interp.set_handle nterms env sizes.(i);
    Interp.set_handle off env offs.(i)
  in
  Trace.make ~name:"twolf" ~length ~init setup

let benchmark =
  {
    Benchmark.name = "TWOLF";
    ts_name = "new_dbox_a";
    kind = Benchmark.Integer;
    ts;
    paper_invocations = "3.19M";
    paper_method = "RBR";
    scale = "1/1000";
    time_share = 0.50;
    trace;
  }
