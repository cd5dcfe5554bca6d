(** GZIP's [longest_match] tuning section.

    The deflate hot spot: walk the hash chain, comparing the window at
    each candidate against the scan position, tracking the best match and
    stopping early on a "good enough" length.  Chain length, per-candidate
    match length, and the best-length updates all depend on window data —
    Table 1's biggest invocation count (82.6M, scaled 1/2000) and an RBR
    case. *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let window_size = 8192
let prev_size = 4096
let span = 4000 (* scan/match offsets stay below this *)
let max_len = 64.0

let ts =
  B.ts ~name:"longest_match"
    ~params:[ "cur_match"; "scan"; "chain_length"; "prev_length"; "nice_match"; "good_match"; "level" ]
    ~arrays:[ ("window", window_size); ("prev", prev_size) ]
    ~locals:[ "chain"; "best_len"; "len"; "searching" ]
    B.
      [
        "chain" := v "chain_length";
        "best_len" := v "prev_length";
        "searching" := c 1.0;
        while_
          (and_ (v "chain" > c 0.0) (v "searching" = c 1.0))
          [
            "len" := c 0.0;
            while_
              (and_
                 (idx "window" (v "scan" + v "len") = idx "window" (v "cur_match" + v "len"))
                 (v "len" < c max_len))
              [ "len" := v "len" + ci 1 ];
            when_
              (v "len" > v "best_len")
              [
                "best_len" := v "len";
                when_ (v "len" >= v "nice_match") [ "searching" := c 0.0 ];
              ];
            (* the real deflate shortens the chain once a good match is in
               hand *)
            when_ (v "best_len" >= v "good_match") [ "chain" := v "chain" - ci 1 ];
            "cur_match" := idx "prev" (v "cur_match" % ci prev_size);
            "chain" := v "chain" - ci 1;
          ];
        when_ (v "best_len" >= c 16.0) [ "best_len" := v "best_len" + c 0.0 ];
        when_ (v "best_len" >= c max_len) [ "best_len" := c max_len ];
        when_ (v "level" > c 6.0) [ "searching" := c 0.0 ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 41300 in
  let rng = R.create ~seed in
  let pre = R.copy rng in
  let scans = Array.init length (fun _ -> float_of_int (R.int pre span)) in
  let matches = Array.init length (fun _ -> float_of_int (R.int pre span)) in
  let chains = Array.init length (fun _ -> float_of_int (1 + R.int pre 8)) in
  let prevs = Array.init length (fun _ -> float_of_int (R.int pre 8)) in
  let levels = Array.init length (fun _ -> float_of_int (1 + R.int pre 9)) in
  let init env =
    let rng = R.copy rng in
    let window = Interp.get_array env "window" in
    (* text-like data: period-32 pattern with noise so matches of varied
       length occur *)
    let pattern = Array.init 32 (fun _ -> float_of_int (R.int rng 8)) in
    Array.iteri
      (fun i _ ->
        window.(i) <-
          (if R.float rng < 0.06 then float_of_int (R.int rng 8) else pattern.(i mod 32)))
      window;
    let prev = Interp.get_array env "prev" in
    Array.iteri (fun i _ -> prev.(i) <- float_of_int (R.int rng span)) prev
  in
  let scan = Interp.handle "scan" and cur_match = Interp.handle "cur_match" in
  let chain_length = Interp.handle "chain_length" and prev_length = Interp.handle "prev_length" in
  let nice_match = Interp.handle "nice_match" and good_match = Interp.handle "good_match" in
  let level = Interp.handle "level" in
  let setup i env =
    Interp.set_handle scan env scans.(i);
    Interp.set_handle cur_match env matches.(i);
    Interp.set_handle chain_length env chains.(i);
    Interp.set_handle prev_length env prevs.(i);
    Interp.set_handle nice_match env 32.0;
    Interp.set_handle good_match env 8.0;
    Interp.set_handle level env levels.(i)
  in
  Trace.make ~name:"gzip" ~length ~init setup

let benchmark =
  {
    Benchmark.name = "GZIP";
    ts_name = "longest_match";
    kind = Benchmark.Integer;
    ts;
    paper_invocations = "82.6M";
    paper_method = "RBR";
    scale = "1/2000";
    time_share = 0.60;
    trace;
  }
