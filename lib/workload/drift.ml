(* Deterministic workload drift.  See drift.mli for the model; the
   implementation note that matters is that the regime draw for
   invocation [i] derives a fresh splitmix64 generator from
   fnv64(seed | i) — the identity-keyed scheme of Peak_sim.Fault — so
   the stream never depends on draw order or pass wraps. *)

open Peak_util

type pattern = Step of int | Ramp of int * int | Periodic of int | Burst of int * int

type warp = { w_source : string; w_scale : bool; w_amount : float }

type t = { seed : int; patterns : pattern list; warps : warp list }

let validate_pattern = function
  | Step at when at < 0 -> Error (Printf.sprintf "drift spec: step=%d is negative" at)
  | Ramp (at, _) when at < 0 -> Error (Printf.sprintf "drift spec: ramp=%d+_ is negative" at)
  | Ramp (_, dur) when dur <= 0 ->
      Error (Printf.sprintf "drift spec: ramp duration %d must be positive" dur)
  | Periodic p when p <= 0 ->
      Error (Printf.sprintf "drift spec: periodic=%d must be positive" p)
  | Burst (at, _) when at < 0 -> Error (Printf.sprintf "drift spec: burst=%d+_ is negative" at)
  | Burst (_, dur) when dur <= 0 ->
      Error (Printf.sprintf "drift spec: burst duration %d must be positive" dur)
  | _ -> Ok ()

let validate_warp w =
  if w.w_source = "" then Error "drift spec: warp names an empty scalar"
  else if not (Float.is_finite w.w_amount) then
    Error (Printf.sprintf "drift spec: warp %s amount is not finite" w.w_source)
  else Ok ()

let validate t =
  let ( let* ) = Result.bind in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        each f rest
  in
  let* () = each validate_pattern t.patterns in
  each validate_warp t.warps

let make ?(seed = 17) ?(warps = []) patterns =
  let t = { seed; patterns; warps } in
  (match validate t with Ok () -> () | Error e -> invalid_arg ("Drift.make: " ^ e));
  t

(* ---------------- schedule ---------------- *)

let pattern_weight p i =
  match p with
  | Step at -> if i >= at then 1.0 else 0.0
  | Ramp (at, dur) ->
      if i < at then 0.0
      else if i >= at + dur then 1.0
      else float_of_int (i - at) /. float_of_int dur
  | Periodic p -> if i / p mod 2 = 1 then 1.0 else 0.0
  | Burst (at, dur) -> if i >= at && i < at + dur then 1.0 else 0.0

let weight t i =
  List.fold_left (fun acc p -> Float.max acc (pattern_weight p i)) 0.0 t.patterns

(* ---------------- identity-keyed draws ---------------- *)

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let rng_for t i = Rng.create ~seed:(Int64.to_int (fnv64 (Printf.sprintf "%d|drift|%d" t.seed i)))

(* One generator per invocation; regime first, replay index second, so
   both are pure functions of (spec, i). *)
let draw t i ~base_length =
  let rng = rng_for t i in
  let shifted = Rng.float rng < weight t i in
  let half = max 1 (base_length / 2) in
  let j =
    if shifted then half + Rng.int rng (max 1 (base_length - half)) else Rng.int rng half
  in
  (shifted, min j (base_length - 1))

let in_shifted_regime t i =
  (* the weight can be 0 or 1 without consulting the generator, but the
     draw must still burn the same stream position as [draw] *)
  Rng.float (rng_for t i) < weight t i

(* ---------------- ground truth ---------------- *)

let shift_points t ~length =
  let of_pattern = function
    | Step at -> [ at ]
    | Ramp (at, _) -> [ at ]
    | Burst (at, dur) -> [ at; at + dur ]
    | Periodic p ->
        let rec go k acc = if k >= length then List.rev acc else go (k + p) (k :: acc) in
        go p []
  in
  List.concat_map of_pattern t.patterns
  |> List.filter (fun i -> i > 0 && i < length)
  |> List.sort_uniq compare

(* ---------------- the drifting trace ---------------- *)

let apply ?length t (base : Trace.t) =
  let length =
    match length with
    | None -> base.Trace.length
    | Some l ->
        if l <= 0 then invalid_arg "Drift.apply: nonpositive length";
        l
  in
  let base_length = base.Trace.length in
  (* init-owned scalars a warp targets must be restored before every
     setup, or a regime-B invocation would latch the warped value into
     every later regime-A invocation *)
  let warps = List.map (fun w -> (w, Peak_ir.Interp.handle w.w_source)) t.warps in
  let saved = ref [] in
  let init env =
    base.Trace.init env;
    saved := List.map (fun (_, h) -> (h, Peak_ir.Interp.get_handle h env)) warps
  in
  let setup i env =
    List.iter (fun (h, v) -> Peak_ir.Interp.set_handle h env v) !saved;
    let shifted, j = draw t i ~base_length in
    base.Trace.setup j env;
    if shifted then
      List.iter
        (fun (w, h) ->
          let v = Peak_ir.Interp.get_handle h env in
          Peak_ir.Interp.set_handle h env
            (if w.w_scale then v *. w.w_amount else v +. w.w_amount))
        warps
  in
  let class_of =
    match base.Trace.class_of with
    | None -> None
    | Some c ->
        Some
          (fun i ->
            let shifted, j = draw t i ~base_length in
            (2 * c j) + if shifted then 1 else 0)
  in
  Trace.make ~name:(base.Trace.name ^ "+drift") ~length ~init ?class_of
    ~mutated_arrays:base.Trace.mutated_arrays setup

(* ---------------- spec strings ---------------- *)

let to_string t =
  let pattern_str = function
    | Step at -> Printf.sprintf "step=%d" at
    | Ramp (at, dur) -> Printf.sprintf "ramp=%d+%d" at dur
    | Periodic p -> Printf.sprintf "periodic=%d" p
    | Burst (at, dur) -> Printf.sprintf "burst=%d+%d" at dur
  in
  let warp_str w =
    Printf.sprintf "warp=%s%c%.17g" w.w_source (if w.w_scale then '*' else '+') w.w_amount
  in
  String.concat ","
    ((Printf.sprintf "seed=%d" t.seed :: List.map pattern_str t.patterns)
    @ List.map warp_str t.warps)

let of_string s =
  let ( let* ) = Result.bind in
  let int_v k v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "drift spec: %s=%S is not an integer" k v)
  in
  let at_dur k v =
    match String.index_opt v '+' with
    | None -> Error (Printf.sprintf "drift spec: %s=%S is not AT+DUR" k v)
    | Some i ->
        let* at = int_v k (String.sub v 0 i) in
        let* dur = int_v k (String.sub v (i + 1) (String.length v - i - 1)) in
        Ok (at, dur)
  in
  let parse_warp v =
    let split c =
      match String.rindex_opt v c with
      | Some i when i > 0 && i < String.length v - 1 ->
          Some (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
      | _ -> None
    in
    let finish w_source w_scale amount =
      match float_of_string_opt amount with
      | Some a when Float.is_finite a -> Ok { w_source; w_scale; w_amount = a }
      | Some _ -> Error (Printf.sprintf "drift spec: warp=%S amount is not finite" v)
      | None -> Error (Printf.sprintf "drift spec: warp=%S amount is not a number" v)
    in
    match split '*' with
    | Some (name, amount) -> finish name true amount
    | None -> (
        match split '+' with
        | Some (name, amount) -> finish name false amount
        | None -> Error (Printf.sprintf "drift spec: warp=%S is not NAME*F or NAME+F" v))
  in
  let parse_field acc field =
    let* t = acc in
    match String.index_opt field '=' with
    | None -> Error (Printf.sprintf "drift spec: %S is not key=value" field)
    | Some i -> (
        let k = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        (* patterns and warps append in declaration order *)
        match k with
        | "seed" ->
            let* n = int_v k v in
            Ok { t with seed = n }
        | "step" ->
            let* at = int_v k v in
            Ok { t with patterns = t.patterns @ [ Step at ] }
        | "ramp" ->
            let* at, dur = at_dur k v in
            Ok { t with patterns = t.patterns @ [ Ramp (at, dur) ] }
        | "periodic" ->
            let* p = int_v k v in
            Ok { t with patterns = t.patterns @ [ Periodic p ] }
        | "burst" ->
            let* at, dur = at_dur k v in
            Ok { t with patterns = t.patterns @ [ Burst (at, dur) ] }
        | "warp" ->
            let* w = parse_warp v in
            Ok { t with warps = t.warps @ [ w ] }
        | _ ->
            Error
              (Printf.sprintf
                 "drift spec: unknown key %S (valid: seed, step, ramp, periodic, burst, warp)" k))
  in
  let fields =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  let* t = List.fold_left parse_field (Ok { seed = 17; patterns = []; warps = [] }) fields in
  let* () = validate t in
  Ok t
