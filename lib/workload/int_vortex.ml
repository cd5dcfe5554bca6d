(** VORTEX's [ChkGetChunk] tuning section.

    The object-store chunk validator: follow the chunk chain from a
    handle until a chunk with the requested status is found (or a hop
    bound trips), then run a couple of consistency checks.  Chain hops
    depend on store state — irregular, RBR (Table 1: 80.4M invocations,
    scaled 1/2000). *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let chunks = 1024

let ts =
  B.ts ~name:"ChkGetChunk" ~params:[ "handle"; "status" ]
    ~arrays:[ ("chunk_status", chunks); ("chunk_next", chunks); ("chunk_size", chunks) ]
    ~locals:[ "cur"; "found"; "steps"; "ok" ]
    B.
      [
        "cur" := v "handle";
        "found" := c 0.0;
        "steps" := c 0.0;
        while_
          (and_ (v "found" = c 0.0) (v "steps" < c 32.0))
          [
            if_
              (idx "chunk_status" (v "cur") = v "status")
              [ "found" := c 1.0 ]
              [
                "cur" := idx "chunk_next" (v "cur");
                "steps" := v "steps" + ci 1;
              ];
          ];
        "ok" := c 0.0;
        when_
          (v "found" = c 1.0)
          [
            when_ (idx "chunk_size" (v "cur") > c 0.0) [ "ok" := c 1.0 ];
            when_ (idx "chunk_size" (v "cur") > c 900.0) [ "ok" := c 2.0 ];
          ];
        (* handle-validation tail, as the real ChkGetChunk performs *)
        when_ (v "steps" > c 4.0) [ "ok" := v "ok" + c 0.0 ];
        when_ (v "steps" > c 16.0) [ "steps" := c 16.0 ];
        when_ (v "status" = c 2.0) [ "ok" := v "ok" * c 1.0 ];
        when_ (idx "chunk_size" (v "cur") > c 500.0) [ "ok" := v "ok" + c 1.0 ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 40200 in
  let rng = R.create ~seed in
  let pre = R.copy rng in
  let handles = Array.init length (fun _ -> float_of_int (R.int pre chunks)) in
  let statuses = Array.init length (fun _ -> float_of_int (R.int pre 4)) in
  let init env =
    let rng = R.copy rng in
    let status = Interp.get_array env "chunk_status" in
    Array.iteri (fun i _ -> status.(i) <- float_of_int (R.int rng 4)) status;
    let next = Interp.get_array env "chunk_next" in
    Array.iteri (fun i _ -> next.(i) <- float_of_int (R.int rng chunks)) next;
    Benchmark.fill_random rng 0.0 1000.0 (Interp.get_array env "chunk_size")
  in
  let handle = Interp.handle "handle" and status = Interp.handle "status" in
  let setup i env =
    Interp.set_handle handle env handles.(i);
    Interp.set_handle status env statuses.(i)
  in
  Trace.make ~name:"vortex" ~length ~init setup

let benchmark =
  {
    Benchmark.name = "VORTEX";
    ts_name = "ChkGetChunk";
    kind = Benchmark.Integer;
    ts;
    paper_invocations = "80.4M";
    paper_method = "RBR";
    scale = "1/2000";
    time_share = 0.35;
    trace;
  }
