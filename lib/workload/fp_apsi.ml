(** APSI's [radb4] tuning section.

    The radix-4 inverse FFT butterfly.  The enclosing FFT driver calls it
    with a different (transform length, stride) pair at each stage; three
    pairs recur throughout the run, giving the three contexts of the
    paper's Table 1 (the small-[ido] context shows the worst rating
    consistency, matching the table's Context 1 row). *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let size = 2048

(* The three recurring (ido, l1) stage shapes.  l1*ido = 128 in each. *)
let contexts = [| (1, 128); (4, 32); (32, 4) |]

let ts =
  B.ts ~name:"radb4" ~params:[ "ido"; "l1" ]
    ~arrays:[ ("cc", size); ("ch", size) ]
    ~locals:[ "i"; "k"; "t"; "t0"; "t1"; "t2"; "t3" ]
    B.
      [
        for_ "k" ~lo:(ci 0) ~hi:(v "l1")
          [
            for_ "i" ~lo:(ci 0) ~hi:(v "ido")
              [
                "t" := (v "k" * v "ido") + v "i";
                "t0" := idx "cc" (c 4.0 * v "t");
                "t1" := idx "cc" ((c 4.0 * v "t") + ci 1);
                "t2" := idx "cc" ((c 4.0 * v "t") + ci 2);
                "t3" := idx "cc" ((c 4.0 * v "t") + ci 3);
                store "ch" (v "t") (v "t0" + v "t1" + v "t2" + v "t3");
                store "ch" (v "t" + ci 128) (v "t0" - v "t2");
                store "ch" (v "t" + ci 256) (v "t0" - v "t1" + v "t2" - v "t3");
                store "ch" (v "t" + ci 384) (v "t1" - v "t3");
              ];
          ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 1370 in
  let rng = R.create ~seed in
  let init env =
    let rng = R.copy rng in
    Benchmark.fill_random rng (-1.0) 1.0 (Interp.get_array env "cc")
  in
  let ido_h = Interp.handle "ido" and l1_h = Interp.handle "l1" in
  let setup i env =
    let ido, l1 = contexts.(i mod Array.length contexts) in
    Interp.set_handle ido_h env (float_of_int ido);
    Interp.set_handle l1_h env (float_of_int l1)
  in
  Trace.make ~name:"apsi" ~length ~init ~class_of:(fun i -> i mod Array.length contexts) setup

let benchmark =
  {
    Benchmark.name = "APSI";
    ts_name = "radb4";
    kind = Benchmark.Floating_point;
    ts;
    paper_invocations = "1.37M";
    paper_method = "CBR";
    scale = "1/1000";
    time_share = 0.30;
    trace;
  }
