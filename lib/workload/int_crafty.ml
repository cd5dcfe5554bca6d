(** CRAFTY's [Attacked] tuning section.

    Ray-walking attack detection: from a square, step along each of the
    eight directions until a piece or the board edge blocks the ray.
    Both the walk lengths and the piece-type conditionals depend on the
    board position, yielding the irregular behaviour Table 1 resolves
    with RBR (12.3M invocations, scaled 1/1000). *)

open Peak_ir
module B = Builder
module R = Peak_util.Rng

let board_slots = 128 (* several positions stored side by side *)
let n_boards = 8

let ts =
  B.ts ~name:"Attacked" ~params:[ "square"; "board_off"; "enemy"; "depth" ]
    ~arrays:[ ("board", board_slots * n_boards); ("dir", 8) ]
    ~locals:[ "d"; "sq"; "walking"; "attacks"; "piece" ]
    B.
      [
        "attacks" := c 0.0;
        for_ "d" ~lo:(ci 0) ~hi:(ci 8)
          [
            "sq" := v "square";
            "walking" := c 1.0;
            while_
              (v "walking" = c 1.0)
              [
                "sq" := v "sq" + idx "dir" (v "d");
                if_
                  (or_ (v "sq" < c 0.0) (v "sq" >= c 64.0))
                  [ "walking" := c 0.0 ]
                  [
                    "piece" := idx "board" (v "sq" + v "board_off");
                    when_
                      (v "piece" <> c 0.0)
                      [
                        when_ (v "piece" = v "enemy") [ "attacks" := v "attacks" + ci 1 ];
                        "walking" := c 0.0;
                      ];
                  ];
              ];
          ];
        (* post-scan heuristics, as the real search does around Attacked:
           distinct data drives each conditional *)
        when_ (v "attacks" > c 0.0) [ "attacks" := v "attacks" + c 0.0 ];
        when_ (v "attacks" > c 2.0) [ "attacks" := c 3.0 ];
        when_ (v "depth" > c 6.0) [ "attacks" := v "attacks" * c 1.0 ];
        when_
          (idx "board" (v "square" + v "board_off") <> c 0.0)
          [ "attacks" := v "attacks" + c 1.0 ];
      ]

let trace dataset ~seed =
  let length = Trace.scaled_length dataset 12300 in
  let rng = R.create ~seed in
  let pre = R.copy rng in
  let squares = Array.init length (fun _ -> float_of_int (8 + R.int pre 48)) in
  let boards = Array.init length (fun _ -> float_of_int (board_slots * R.int pre n_boards)) in
  let enemies = Array.init length (fun _ -> float_of_int (1 + R.int pre 2)) in
  let init env =
    let rng = R.copy rng in
    let board = Interp.get_array env "board" in
    (* sparse occupancy: most squares empty, some friend (3) or enemy (1/2) *)
    Array.iteri
      (fun i _ ->
        board.(i) <-
          (if R.float rng < 0.25 then float_of_int (1 + R.int rng 3) else 0.0))
      board;
    let dir = Interp.get_array env "dir" in
    Array.iteri (fun i _ -> dir.(i) <- [| 1.; -1.; 8.; -8.; 7.; -7.; 9.; -9. |].(i)) dir
  in
  let depths = Array.init length (fun _ -> float_of_int (R.int pre 12)) in
  let square = Interp.handle "square" and board_off = Interp.handle "board_off" in
  let enemy = Interp.handle "enemy" and depth = Interp.handle "depth" in
  let setup i env =
    Interp.set_handle square env squares.(i);
    Interp.set_handle board_off env boards.(i);
    Interp.set_handle enemy env enemies.(i);
    Interp.set_handle depth env depths.(i)
  in
  Trace.make ~name:"crafty" ~length ~init setup

let benchmark =
  {
    Benchmark.name = "CRAFTY";
    ts_name = "Attacked";
    kind = Benchmark.Integer;
    ts;
    paper_invocations = "12.3M";
    paper_method = "RBR";
    scale = "1/1000";
    time_share = 0.45;
    trace;
  }
