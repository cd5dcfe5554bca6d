(* The splitmix64 state lives unboxed in 8 bytes, so a draw reads and
   writes it in place and allocates nothing: an [int64] record field
   would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* splitmix64 step: advance by the golden gamma and scramble.  Inlined
   into every draw below, so the 64-bit values stay in registers. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = next t

let split t = of_state (next t)

(* 53 high bits -> [0,1). *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. (1.0 /. 9007199254740992.0)

let float t = unit_float t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for
     bound << 2^62. *)
  let v = Int64.to_int (next t) land max_int in
  v mod bound

let bool t = Int64.logand (next t) 1L = 1L

let gaussian t ~mean ~stddev =
  let u1 = ref (unit_float t) in
  while !u1 <= 1e-300 do
    u1 := unit_float t
  done;
  let u2 = unit_float t in
  let r = sqrt (-2.0 *. log !u1) in
  mean +. (stddev *. r *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  let u = ref (unit_float t) in
  while !u <= 1e-300 do
    u := unit_float t
  done;
  -.log !u /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
