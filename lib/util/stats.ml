let ensure_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty input")

let mean a =
  ensure_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let mean_list = function
  | [] -> invalid_arg "Stats.mean_list: empty input"
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let variance a =
  ensure_nonempty "Stats.variance" a;
  let n = Array.length a in
  if n = 1 then 0.0
  else begin
    let m = mean a in
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) a;
    !acc /. float_of_int (n - 1)
  end

let stddev a = sqrt (variance a)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let median a =
  ensure_nonempty "Stats.median" a;
  let b = sorted_copy a in
  let n = Array.length b in
  if n mod 2 = 1 then b.(n / 2) else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

let percentile a ~p =
  ensure_nonempty "Stats.percentile" a;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let b = sorted_copy a in
  let n = Array.length b in
  if n = 1 then b.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    b.(lo) +. (frac *. (b.(hi) -. b.(lo)))
  end

let mad a =
  ensure_nonempty "Stats.mad" a;
  let m = median a in
  median (Array.map (fun x -> abs_float (x -. m)) a)

let geometric_mean a =
  ensure_nonempty "Stats.geometric_mean" a;
  Array.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geometric_mean: nonpositive element") a;
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 a /. float_of_int (Array.length a))

module Welford = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    let delta2 = x -. t.mean in
    t.m2 <- t.m2 +. (delta *. delta2)

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let merge a b =
    if a.n = 0 then { n = b.n; mean = b.mean; m2 = b.m2 }
    else if b.n = 0 then { n = a.n; mean = a.mean; m2 = a.m2 }
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      { n; mean; m2 }
    end
end

let outlier_mask ?(k = 3.5) a =
  ensure_nonempty "Stats.outlier_mask" a;
  let n = Array.length a in
  let m = median a in
  let spread = 1.4826 *. mad a in
  if spread <= 0.0 then Array.make n true
  else begin
    let mask = Array.map (fun x -> abs_float (x -. m) <= k *. spread) a in
    let kept = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask in
    if kept * 2 >= n then mask
    else begin
      (* Pathological spread: retain the half closest to the median. *)
      let idx = Array.init n (fun i -> i) in
      Array.sort
        (fun i j -> compare (abs_float (a.(i) -. m)) (abs_float (a.(j) -. m)))
        idx;
      let mask = Array.make n false in
      let keep = (n + 1) / 2 in
      for r = 0 to keep - 1 do
        mask.(idx.(r)) <- true
      done;
      mask
    end
  end

let drop_outliers ?k a =
  let mask = outlier_mask ?k a in
  let out = ref [] in
  for i = Array.length a - 1 downto 0 do
    if mask.(i) then out := a.(i) :: !out
  done;
  Array.of_list !out

(* Reusable buffers for the statistics the rating loop recomputes at
   every convergence check.  The heap-allocating entry points above stay
   as the reference implementations; [Scratch] gives bit-identical
   results out of preallocated storage — the per-check [List.filter] +
   [Array.of_list] + mask/kept arrays were the rating layer's dominant
   allocation.  A scratch is single-owner mutable state: use one per
   domain. *)
module Scratch = struct
  type t = {
    mutable vals : float array;  (* collected values, indices 0..n-1 *)
    mutable aux : float array;  (* order-statistics working buffer *)
    mutable mask : Bytes.t;  (* '\001' = kept by the last outlier pass *)
    mutable n : int;
  }

  let create () =
    { vals = Array.make 64 0.0; aux = Array.make 64 0.0; mask = Bytes.make 64 '\000'; n = 0 }

  let grow t needed =
    let cap = max needed (2 * Array.length t.vals) in
    let v = Array.make cap 0.0 in
    Array.blit t.vals 0 v 0 t.n;
    t.vals <- v;
    (* aux and mask carry no live data across operations *)
    t.aux <- Array.make cap 0.0;
    t.mask <- Bytes.make cap '\000'

  let clear t = t.n <- 0

  let push t x =
    if t.n >= Array.length t.vals then grow t (t.n + 1);
    t.vals.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.vals.(i)
  let kept t i = Bytes.get t.mask i <> '\000'

  (* In-place heapsort of a.(0..n-1).  The buffer holds finite floats
     (callers filter non-finite values first), so plain [<] agrees with
     [compare]'s total order up to the placement of equal keys — and
     only order statistics of the sorted prefix are ever read, which
     equal-key placement cannot change. *)
  let sort_prefix (a : float array) n =
    let sift root last =
      let r = ref root in
      let continue = ref true in
      while !continue do
        let child = (2 * !r) + 1 in
        if child > last then continue := false
        else begin
          let child = if child < last && a.(child) < a.(child + 1) then child + 1 else child in
          if a.(!r) < a.(child) then begin
            let tmp = a.(!r) in
            a.(!r) <- a.(child);
            a.(child) <- tmp;
            r := child
          end
          else continue := false
        end
      done
    in
    for root = (n - 2) / 2 downto 0 do
      sift root (n - 1)
    done;
    for last = n - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- tmp;
      sift 0 (last - 1)
    done

  (* Median of the sorted prefix a.(0..n-1). *)
  let median_sorted (a : float array) n =
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

  let all_finite t =
    let ok = ref true in
    for i = 0 to t.n - 1 do
      if not (Float.is_finite t.vals.(i)) then ok := false
    done;
    !ok

  (* [outlier_mask] over the collected values, writing the verdicts into
     [t.mask].  Bit-identical to the array version above: same median,
     same MAD, same keep-at-least-half fallback (which reuses the
     original index-sorting code verbatim — its allocation only happens
     on pathological spreads).  Buffers containing non-finite values
     (possible for MBR residuals from a degenerate fit) delegate to the
     reference implementation, whose polymorphic compare has defined NaN
     ordering. *)
  let outlier_mask ?(k = 3.5) t =
    let n = t.n in
    if n = 0 then invalid_arg "Stats.Scratch.outlier_mask: empty input";
    if not (all_finite t) then begin
      let mask = outlier_mask ~k (Array.sub t.vals 0 n) in
      for i = 0 to n - 1 do
        Bytes.set t.mask i (if mask.(i) then '\001' else '\000')
      done
    end
    else begin
      let a = t.vals and aux = t.aux in
      Array.blit a 0 aux 0 n;
      sort_prefix aux n;
      let m = median_sorted aux n in
      for i = 0 to n - 1 do
        aux.(i) <- abs_float (a.(i) -. m)
      done;
      sort_prefix aux n;
      let spread = 1.4826 *. median_sorted aux n in
      if spread <= 0.0 then Bytes.fill t.mask 0 n '\001'
      else begin
        let kept = ref 0 in
        for i = 0 to n - 1 do
          if abs_float (a.(i) -. m) <= k *. spread then begin
            Bytes.set t.mask i '\001';
            incr kept
          end
          else Bytes.set t.mask i '\000'
        done;
        if !kept * 2 < n then begin
          (* Pathological spread: retain the half closest to the median. *)
          let idx = Array.init n (fun i -> i) in
          Array.sort
            (fun i j -> compare (abs_float (a.(i) -. m)) (abs_float (a.(j) -. m)))
            idx;
          Bytes.fill t.mask 0 n '\000';
          let keep = (n + 1) / 2 in
          for r = 0 to keep - 1 do
            Bytes.set t.mask idx.(r) '\001'
          done
        end
      end
    end

  let kept_count t =
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if kept t i then incr c
    done;
    !c

  (* Mean over the kept values in collection order — the same ascending
     fold (hence the same partial sums) as [mean (drop_outliers a)]. *)
  let kept_mean t =
    let sum = ref 0.0 in
    let c = ref 0 in
    for i = 0 to t.n - 1 do
      if kept t i then begin
        sum := !sum +. t.vals.(i);
        incr c
      end
    done;
    if !c = 0 then invalid_arg "Stats.Scratch.kept_mean: nothing kept";
    !sum /. float_of_int !c

  (* Two-pass unbiased variance over the kept values, matching
     [variance] on the dropped-outliers array. *)
  let kept_variance t =
    let n = kept_count t in
    if n = 0 then invalid_arg "Stats.Scratch.kept_variance: nothing kept";
    if n = 1 then 0.0
    else begin
      let m = kept_mean t in
      let acc = ref 0.0 in
      for i = 0 to t.n - 1 do
        if kept t i then begin
          let d = t.vals.(i) -. m in
          acc := !acc +. (d *. d)
        end
      done;
      !acc /. float_of_int (n - 1)
    end
end

type welch = Insufficient_data | Equal | Welch of { t_stat : float; df : float }

let welch_t_summary ~mean1 ~var1 ~n1 ~mean2 ~var2 ~n2 =
  if
    n1 < 2 || n2 < 2
    || not (Float.is_finite mean1)
    || not (Float.is_finite mean2)
    || not (Float.is_finite var1)
    || not (Float.is_finite var2)
  then
    (* a sample that cannot support a variance estimate (or carries NaN
       summary statistics) must not masquerade as "no difference" *)
    Insufficient_data
  else begin
    let s1 = var1 /. float_of_int n1 and s2 = var2 /. float_of_int n2 in
    let se2 = s1 +. s2 in
    if se2 <= 0.0 then
      (* zero pooled variance: the difference is deterministic, so report
         a signed infinite statistic rather than losing the direction.
         Equal constant samples are exactly equal — a degenerate verdict,
         not a t = 0 at a made-up df = 1 (which misreported the strength
         of the "no difference" conclusion). *)
      if mean1 = mean2 then Equal
      else if mean1 < mean2 then Welch { t_stat = neg_infinity; df = 1.0 }
      else Welch { t_stat = infinity; df = 1.0 }
    else begin
      let t = (mean1 -. mean2) /. sqrt se2 in
      let df =
        se2 *. se2
        /. ((s1 *. s1 /. float_of_int (n1 - 1)) +. (s2 *. s2 /. float_of_int (n2 - 1)))
      in
      Welch { t_stat = t; df }
    end
  end

(* Two-sided 95% quantiles of Student's t, linearly interpolated. *)
let t_table =
  [|
    (1.0, 12.706); (2.0, 4.303); (3.0, 3.182); (4.0, 2.776); (5.0, 2.571);
    (6.0, 2.447); (7.0, 2.365); (8.0, 2.306); (9.0, 2.262); (10.0, 2.228);
    (12.0, 2.179); (15.0, 2.131); (20.0, 2.086); (25.0, 2.060); (30.0, 2.042);
    (40.0, 2.021); (60.0, 2.000); (120.0, 1.980); (1e9, 1.960);
  |]

let t_critical95 ~df =
  let df = Float.max 1.0 df in
  let n = Array.length t_table in
  let rec find i =
    if i >= n - 1 then snd t_table.(n - 1)
    else begin
      let d0, c0 = t_table.(i) and d1, c1 = t_table.(i + 1) in
      if df <= d1 then c0 +. ((c1 -. c0) *. (df -. d0) /. (d1 -. d0)) else find (i + 1)
    end
  in
  if df <= 1.0 then snd t_table.(0) else find 0

let significantly_less ~mean1 ~var1 ~n1 ~mean2 ~var2 ~n2 =
  match welch_t_summary ~mean1 ~var1 ~n1 ~mean2 ~var2 ~n2 with
  | Insufficient_data | Equal -> false
  | Welch { t_stat; df } -> t_stat < -.t_critical95 ~df

let windows a ~size =
  if size <= 0 then invalid_arg "Stats.windows: size must be positive";
  let n = Array.length a / size in
  Array.init n (fun w -> Array.sub a (w * size) size)
