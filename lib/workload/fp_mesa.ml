(** MESA's [sample_1d_linear] tuning section.

    Linear texture sampling: compute the two texel indices around a
    continuous coordinate, apply the wrap/clamp mode to each, and
    interpolate.  The texture coordinate is a fresh float every call, so
    contexts never repeat; the wrap/clamp conditionals flip independently
    — too many independent components for MBR, hence Table 1's RBR row
    (193M invocations in the paper, scaled here). *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let tex_size = 256

let ts =
  B.ts ~name:"sample_1d_linear" ~params:[ "u"; "wrap_repeat"; "size" ]
    ~arrays:[ ("tex", tex_size) ]
    ~locals:[ "a"; "i0"; "i1"; "frac"; "r" ]
    B.
      [
        "a" := v "u" * v "size";
        "i0" := floor_ (v "a" - c 0.5);
        "frac" := v "a" - c 0.5 - v "i0";
        "i1" := v "i0" + ci 1;
        if_
          (v "wrap_repeat" = c 1.0)
          [ "i0" := v "i0" % v "size"; "i1" := v "i1" % v "size";
            when_ (v "i0" < c 0.0) [ "i0" := v "i0" + v "size" ];
            when_ (v "i1" < c 0.0) [ "i1" := v "i1" + v "size" ] ]
          [
            when_ (v "i0" < c 0.0) [ "i0" := c 0.0 ];
            when_ (v "i0" >= v "size") [ "i0" := v "size" - ci 1 ];
            when_ (v "i1" < c 0.0) [ "i1" := c 0.0 ];
            when_ (v "i1" >= v "size") [ "i1" := v "size" - ci 1 ];
          ];
        (* filter special cases, as the real sampler short-circuits *)
        when_ (v "frac" < c 0.05) [ "frac" := c 0.0 ];
        when_ (v "i0" = v "i1") [ "frac" := c 0.0 ];
        when_ (v "u" < c 0.0) [ "a" := c 0.0 ];
        "r" := ((c 1.0 - v "frac") * idx "tex" (v "i0")) + (v "frac" * idx "tex" (v "i1"));
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 48250 in
  let rng = R.create ~seed in
  let pre = R.copy rng in
  let us = Array.init length (fun _ -> (R.float pre *. 1.4) -. 0.2) in
  let wraps = Array.init length (fun _ -> if R.float pre < 0.5 then 1.0 else 0.0) in
  let init env =
    let rng = R.copy rng in
    Benchmark.fill_random rng 0.0 1.0 (Interp.get_array env "tex");
    Interp.set_scalar env "size" (float_of_int tex_size)
  in
  let u = Interp.handle "u" and wrap_repeat = Interp.handle "wrap_repeat" in
  let setup i env =
    Interp.set_handle u env us.(i);
    Interp.set_handle wrap_repeat env wraps.(i)
  in
  Trace.make ~name:"mesa" ~length ~init setup

let benchmark =
  {
    Benchmark.name = "MESA";
    ts_name = "sample_1d_linear";
    kind = Benchmark.Floating_point;
    ts;
    paper_invocations = "193M";
    paper_method = "RBR";
    scale = "1/4000";
    time_share = 0.50;
    trace;
  }
