(* Residency lives in integer arrays indexed by base slot, with a
   running resident total, so a charge walks the slots in order without
   comparing a name or refolding the resident set. *)

type t = {
  machine : Machine.t;
  capacity : int;
  rng : Peak_util.Rng.t option;
  bytes : int array;  (** touched extent per slot *)
  size : int array;  (** bytes a slot occupies while resident *)
  stamp : int array;  (** last touch; 0 = not resident *)
  mutable resident : int;  (** sum of [size] over resident slots *)
  mutable clock : int;
}

let create ?rng (machine : Machine.t) ~bytes =
  let capacity = machine.l2_bytes in
  {
    machine;
    capacity;
    rng;
    bytes = Array.copy bytes;
    size = Array.map (fun b -> Int.min b capacity) bytes;
    stamp = Array.make (Array.length bytes) 0;
    resident = 0;
    clock = 0;
  }

let flush t =
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.resident <- 0

let is_resident t s = t.stamp.(s) > 0
let resident_bytes t = t.resident

(* Evict least recently stamped slots until the resident set fits.
   Stamps are unique, so the victim does not depend on scan order. *)
let evict_to_capacity t =
  while t.resident > t.capacity do
    let lru = ref (-1) in
    for s = 0 to Array.length t.stamp - 1 do
      let st = t.stamp.(s) in
      if st > 0 && (!lru < 0 || st < t.stamp.(!lru)) then lru := s
    done;
    t.resident <- t.resident - t.size.(!lru);
    t.stamp.(!lru) <- 0
  done

let touch t s =
  t.clock <- t.clock + 1;
  if t.stamp.(s) = 0 then t.resident <- t.resident + t.size.(s);
  t.stamp.(s) <- t.clock;
  evict_to_capacity t

(* Miss lines charged for one invocation's [touches] on slot [s];
   inlined so the charge loop boxes no float. *)
let[@inline] miss_lines t s touches ~resident =
  let bytes = t.bytes.(s) in
  let line = t.machine.l2_line in
  let lines_touched = Int.max 1 ((bytes + line - 1) / line) in
  let cold = if resident then 0.0 else float_of_int (Int.min lines_touched touches) in
  let capacity =
    if bytes <= t.capacity then 0.0
    else begin
      (* each line holds line/8 elements; on a streaming pass over an
         array larger than the cache, the uncached fraction of lines
         misses on every revisit *)
      let uncached_fraction = 1.0 -. (float_of_int t.capacity /. float_of_int bytes) in
      let elems_per_line = float_of_int (line / 8) in
      let base = float_of_int touches /. elems_per_line *. uncached_fraction in
      match t.rng with
      | None -> base
      | Some rng ->
          (* conflict placement varies run to run at this granularity *)
          base *. Float.max 0.2 (Peak_util.Rng.gaussian rng ~mean:1.0 ~stddev:0.25)
    end
  in
  cold +. capacity

let charge t touches =
  if Array.length touches <> Array.length t.bytes then
    invalid_arg "Memsys.charge: slot count mismatch";
  let miss_cost = t.machine.mem_cycles -. t.machine.l1_hit_cycles in
  let acc = ref 0.0 in
  for s = 0 to Array.length touches - 1 do
    let n = touches.(s) in
    if n > 0 && t.bytes.(s) > 0 then begin
      let cost = miss_lines t s n ~resident:(t.stamp.(s) > 0) *. miss_cost in
      touch t s;
      acc := !acc +. cost
    end
  done;
  !acc
