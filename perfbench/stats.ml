(* Order statistics over measured samples.  Percentiles are nearest-rank
   and computed with integer ranks, so a reported percentile always has
   exactly the stated number of samples beyond it. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The [p]-th percentile (whole percent, 1..100) of a sorted, non-empty
   array: the sample at rank ceil(p·n/100). *)
let rank a p =
  let n = Array.length a in
  let k = ((p * n) + 99) / 100 in
  a.(max 0 (min (n - 1) (k - 1)))

let median xs = match xs with [] -> nan | _ -> rank (sorted xs) 50

(* The highest whole percentile with at least [beyond] samples above its
   rank, with its value; [None] when there are too few samples. *)
let tail ?(beyond = 10) xs =
  let n = List.length xs in
  if n <= beyond then None
  else
    let p = 100 * (n - beyond) / n in
    if p < 1 then None else Some (p, rank (sorted xs) p)

let mean xs =
  match xs with [] -> nan | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = match xs with [] -> nan | _ -> exp (mean (List.map log xs))

(* Total length of the union of [lo, hi) intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | None -> (total, Some (lo, hi))
        | Some (clo, chi) when lo <= chi -> (total, Some (clo, Float.max chi hi))
        | Some (clo, chi) -> (total +. (chi -. clo), Some (lo, hi)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (lo, hi) -> total +. (hi -. lo)
