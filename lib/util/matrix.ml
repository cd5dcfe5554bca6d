type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: nonpositive dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let idx m r c = (r * m.cols) + c
let get m r c = m.data.(idx m r c)
let set m r c v = m.data.(idx m r c) <- v

let init ~rows ~cols ~f =
  let m = create ~rows ~cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      set m r c (f r c)
    done
  done;
  m

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Matrix.of_arrays: empty row";
  Array.iter
    (fun row -> if Array.length row <> cols then invalid_arg "Matrix.of_arrays: ragged input")
    a;
  init ~rows ~cols ~f:(fun r c -> a.(r).(c))

let identity n = init ~rows:n ~cols:n ~f:(fun r c -> if r = c then 1.0 else 0.0)
let rows m = m.rows
let cols m = m.cols
let copy m = { m with data = Array.copy m.data }
let transpose m = init ~rows:m.cols ~cols:m.rows ~f:(fun r c -> get m c r)
let row m r = Array.init m.cols (fun c -> get m r c)

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let out = create ~rows:a.rows ~cols:b.cols in
  for r = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let av = get a r k in
      if av <> 0.0 then
        for c = 0 to b.cols - 1 do
          set out r c (get out r c +. (av *. get b k c))
        done
    done
  done;
  out

let mul_vec a v =
  if a.cols <> Array.length v then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init a.rows (fun r ->
      let acc = ref 0.0 in
      for c = 0 to a.cols - 1 do
        acc := !acc +. (get a r c *. v.(c))
      done;
      !acc)

let add a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Matrix.add: dimension mismatch";
  { a with data = Array.mapi (fun i x -> x +. b.data.(i)) a.data }

let scale a s = { a with data = Array.map (fun x -> x *. s) a.data }

let solve a b =
  if a.rows <> a.cols then invalid_arg "Matrix.solve: matrix not square";
  if a.rows <> Array.length b then invalid_arg "Matrix.solve: rhs length mismatch";
  let n = a.rows in
  let m = copy a in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    (* partial pivot *)
    let pivot = ref k in
    for r = k + 1 to n - 1 do
      if abs_float (get m r k) > abs_float (get m !pivot k) then pivot := r
    done;
    if abs_float (get m !pivot k) < 1e-12 then failwith "Matrix.solve: singular matrix";
    if !pivot <> k then begin
      for c = 0 to n - 1 do
        let tmp = get m k c in
        set m k c (get m !pivot c);
        set m !pivot c tmp
      done;
      let tmp = x.(k) in
      x.(k) <- x.(!pivot);
      x.(!pivot) <- tmp
    end;
    for r = k + 1 to n - 1 do
      let f = get m r k /. get m k k in
      if f <> 0.0 then begin
        for c = k to n - 1 do
          set m r c (get m r c -. (f *. get m k c))
        done;
        x.(r) <- x.(r) -. (f *. x.(k))
      end
    done
  done;
  for r = n - 1 downto 0 do
    let acc = ref x.(r) in
    for c = r + 1 to n - 1 do
      acc := !acc -. (get m r c *. x.(c))
    done;
    x.(r) <- !acc /. get m r r
  done;
  x

(* Householder QR least squares: reduce [a|b] in place, back-substitute on
   the leading cols x cols triangle. *)
let least_squares a b =
  let mrows = a.rows and ncols = a.cols in
  if mrows < ncols then invalid_arg "Matrix.least_squares: underdetermined system";
  if mrows <> Array.length b then invalid_arg "Matrix.least_squares: rhs length mismatch";
  let r = copy a in
  let y = Array.copy b in
  (* rank deficiency must be judged relative to each column's scale, or
     large-magnitude collinear columns sail past an absolute epsilon and
     produce astronomically wrong coefficients *)
  let col_scale =
    Array.init ncols (fun c ->
        let acc = ref 0.0 in
        for i = 0 to mrows - 1 do
          acc := !acc +. (get a i c *. get a i c)
        done;
        sqrt !acc)
  in
  for k = 0 to ncols - 1 do
    (* Householder vector for column k, rows k.. *)
    let norm = ref 0.0 in
    for i = k to mrows - 1 do
      norm := !norm +. (get r i k *. get r i k)
    done;
    let norm = sqrt !norm in
    if norm < 1e-12 +. (1e-9 *. col_scale.(k)) then
      failwith "Matrix.least_squares: rank deficient";
    let alpha = if get r k k > 0.0 then -.norm else norm in
    let v = Array.make mrows 0.0 in
    v.(k) <- get r k k -. alpha;
    for i = k + 1 to mrows - 1 do
      v.(i) <- get r i k
    done;
    let vtv = ref 0.0 in
    for i = k to mrows - 1 do
      vtv := !vtv +. (v.(i) *. v.(i))
    done;
    if !vtv > 0.0 then begin
      (* apply H = I - 2 v v^T / (v^T v) to remaining columns and rhs *)
      for c = k to ncols - 1 do
        let dot = ref 0.0 in
        for i = k to mrows - 1 do
          dot := !dot +. (v.(i) *. get r i c)
        done;
        let f = 2.0 *. !dot /. !vtv in
        for i = k to mrows - 1 do
          set r i c (get r i c -. (f *. v.(i)))
        done
      done;
      let dot = ref 0.0 in
      for i = k to mrows - 1 do
        dot := !dot +. (v.(i) *. y.(i))
      done;
      let f = 2.0 *. !dot /. !vtv in
      for i = k to mrows - 1 do
        y.(i) <- y.(i) -. (f *. v.(i))
      done
    end
  done;
  let x = Array.make ncols 0.0 in
  for i = ncols - 1 downto 0 do
    let acc = ref y.(i) in
    for c = i + 1 to ncols - 1 do
      acc := !acc -. (get r i c *. x.(c))
    done;
    if abs_float (get r i i) < 1e-12 then failwith "Matrix.least_squares: rank deficient";
    x.(i) <- !acc /. get r i i
  done;
  x

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       Array.iteri (fun i x -> if abs_float (x -. b.data.(i)) > eps then ok := false) a.data;
       !ok
     end

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for r = 0 to m.rows - 1 do
    Format.fprintf fmt "[";
    for c = 0 to m.cols - 1 do
      if c > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%.6g" (get m r c)
    done;
    Format.fprintf fmt "]@,"
  done;
  Format.fprintf fmt "@]"
