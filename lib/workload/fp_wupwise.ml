(** WUPWISE's [zgemm] tuning section.

    Complex matrix–matrix multiply on the small SU(3)-style matrices of
    the lattice-QCD code.  Two shapes recur (the paper's two zgemm
    contexts): the 4x4 spinor form and the 3x3 color form. *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let stride = 4
let size = stride * stride

let contexts = [| (4, 4, 4); (3, 3, 3) |]

let ts =
  B.ts ~name:"zgemm" ~params:[ "m"; "n"; "k" ]
    ~arrays:
      [
        ("ar", size); ("ai", size); ("br", size); ("bi", size); ("creal", size); ("cimag", size);
      ]
    ~locals:[ "ii"; "jj"; "kk"; "sr"; "si"; "t" ]
    B.
      [
        for_ "ii" ~lo:(ci 0) ~hi:(v "m")
          [
            for_ "jj" ~lo:(ci 0) ~hi:(v "n")
              [
                "sr" := c 0.0;
                "si" := c 0.0;
                for_ "kk" ~lo:(ci 0) ~hi:(v "k")
                  [
                    "t" := (v "ii" * ci stride) + v "kk";
                    "sr"
                    := v "sr"
                       + (idx "ar" (v "t") * idx "br" ((v "kk" * ci stride) + v "jj"))
                       - (idx "ai" (v "t") * idx "bi" ((v "kk" * ci stride) + v "jj"));
                    "si"
                    := v "si"
                       + (idx "ar" (v "t") * idx "bi" ((v "kk" * ci stride) + v "jj"))
                       + (idx "ai" (v "t") * idx "br" ((v "kk" * ci stride) + v "jj"));
                  ];
                store "creal" ((v "ii" * ci stride) + v "jj") (v "sr");
                store "cimag" ((v "ii" * ci stride) + v "jj") (v "si");
              ];
          ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 22500 in
  let rng = R.create ~seed in
  let init env =
    let rng = R.copy rng in
    List.iter
      (fun a -> Benchmark.fill_random rng (-1.0) 1.0 (Interp.get_array env a))
      [ "ar"; "ai"; "br"; "bi" ]
  in
  let m_h = Interp.handle "m" and n_h = Interp.handle "n" and k_h = Interp.handle "k" in
  let setup i env =
    let m, n, k = contexts.(i mod Array.length contexts) in
    Interp.set_handle m_h env (float_of_int m);
    Interp.set_handle n_h env (float_of_int n);
    Interp.set_handle k_h env (float_of_int k)
  in
  Trace.make ~name:"wupwise" ~length ~init
    ~class_of:(fun i -> i mod Array.length contexts)
    setup

let benchmark =
  {
    Benchmark.name = "WUPWISE";
    ts_name = "zgemm";
    kind = Benchmark.Floating_point;
    ts;
    paper_invocations = "22.5M";
    paper_method = "CBR";
    scale = "1/1000";
    time_share = 0.55;
    trace;
  }
