open Peak_ir
open Peak_workload
open Peak_compiler

type context_stat = { values : float array; count : int; time_share : float }

(* The census, in id order (ids run by first occurrence): context
   [id]'s last-invocation vector is [values.(id * width)] ..
   [values.(id * width + width - 1)]. *)
type census = { width : int; values : float array; counts : int array; shares : float array }

type context_info =
  | Cbr_ok of {
      sources : Expr.source list;
      n_contexts : int;
      head : context_stat option;
      census : census;
      runtime_constant_arrays : string list;
      pruned : Expr.source list;
    }
  | Cbr_no of string

type t = {
  n_invocations : int;
  avg_invocation_cycles : float;
  context : context_info;
  components : Component_analysis.t;
  count_samples : int array array;
  impure_calls : bool;
  block_weights : float array;
  avg_component_counts : float array;
  dominant_component : int;
  ts_pass_cycles : float;
}

(* The context table: one entry per distinct pruned context vector, its
   invocation count and summed time.  Vectors are equal under
   [compare] (nan equals nan, -0.0 equals 0.0), and an entry's values
   are those of its last invocation, as a table whose [replace] also
   replaces the key keeps them.

   Contexts come out in the order the profile has always given: a
   generic [Hashtbl] (created at 16 buckets) folded into a list, then
   stable-sorted by descending time share.  That order is a function of
   the keys' hashes and first occurrences, so no table is built for it.
   After [d] insertions such a table has [b] buckets, the least power
   of two from 16 up with [d <= 2b]; a key sits in bucket
   [Hashtbl.hash key land (b - 1)], newest first (a resize keeps each
   chain's order), so the folded list runs by bucket descending, then by
   first occurrence.  The stable sort puts time share ahead of both:
   contexts run by (time share descending, bucket descending, first
   occurrence ascending), a total order, which [precedes] compares.

   Lookups go through an open-addressed table of context ids, and a
   vector is read from its invocation's row of [ctx]: an invocation
   allocates nothing.  The census copies each context's last vector
   into one flat array, and one scan over the ids finds the head. *)

(* the generic table's bucket count after [d] insertions *)
let buckets d =
  let b = ref 16 in
  while d > 2 * !b do
    b := 2 * !b
  done;
  !b

(* [precedes shares hashes mask a b < 0] when context [a] comes before
   context [b], its bucket being [hashes.(a) land mask] *)
let precedes shares hashes mask a b =
  match Float.compare shares.(b) shares.(a) with
  | 0 -> (
      match Int.compare (hashes.(b) land mask) (hashes.(a) land mask) with
      | 0 -> Int.compare a b
      | o -> o)
  | o -> o

let stat c id =
  {
    values = Array.sub c.values (id * c.width) c.width;
    count = c.counts.(id);
    time_share = c.shares.(id);
  }

let census ~ctx ~k ~keep ~times ~total =
  let n = Array.length times in
  let kept = Array.of_list (List.filter (fun j -> keep.(j)) (List.init k Fun.id)) in
  let m = Array.length kept in
  let key = Array.make m 0.0 in
  let cap = ref 16 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let slots = Array.make !cap (-1) in
  let hash = Array.make n 0 and first = Array.make n 0 and last = Array.make n 0 in
  let count = Array.make n 0 and time = Array.make n 0.0 in
  let distinct = ref 0 in
  (* [key] holds the vector of context [id]'s first invocation *)
  let matches id =
    let row = first.(id) * k in
    let j = ref 0 in
    while !j < m && Float.compare key.(!j) ctx.(row + kept.(!j)) = 0 do
      incr j
    done;
    !j = m
  in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      key.(j) <- ctx.((i * k) + kept.(j))
    done;
    let h = Hashtbl.hash key in
    let s = ref (h land mask) in
    while slots.(!s) >= 0 && not (hash.(slots.(!s)) = h && matches slots.(!s)) do
      s := (!s + 1) land mask
    done;
    if slots.(!s) < 0 then begin
      let id = !distinct in
      incr distinct;
      slots.(!s) <- id;
      hash.(id) <- h;
      first.(id) <- i
    end;
    let id = slots.(!s) in
    last.(id) <- i;
    count.(id) <- count.(id) + 1;
    time.(id) <- time.(id) +. times.(i)
  done;
  let d = !distinct in
  let share = Float.max 1.0 total in
  let values = Array.make (d * m) 0.0 and shares = Array.make d 0.0 in
  for id = 0 to d - 1 do
    let row = last.(id) * k in
    for j = 0 to m - 1 do
      values.((id * m) + j) <- ctx.(row + kept.(j))
    done;
    shares.(id) <- time.(id) /. share
  done;
  let c = { width = m; values; counts = Array.sub count 0 d; shares } in
  let bucket_mask = buckets d - 1 and best = ref 0 in
  for id = 1 to d - 1 do
    if precedes shares hash bucket_mask id !best < 0 then best := id
  done;
  (c, if d = 0 then None else Some (stat c !best))

let run ?(seed = 7) ?(max_count_samples = 240) tsec trace machine =
  let o3 = Version.compile machine tsec.Tsection.features Optconfig.o3 in
  let runner = Runner.create ~seed ~context_switch_rate:0.0 tsec trace machine in
  let verdict =
    Context_analysis.analyze tsec ~mutated_arrays:trace.Trace.mutated_arrays
  in
  let candidate_sources =
    match verdict with
    | Context_analysis.Applicable { sources; _ } -> sources
    | Context_analysis.Not_applicable _ -> []
  in
  let n = trace.Trace.length in
  (* Sample invocations for the count model at pseudo-random positions: a
     regular stride can alias with periodic context patterns (e.g. a
     multigrid V-cycle) and hide count variation entirely. *)
  let sample_here =
    let marks = Array.make n false in
    let order = Array.init n (fun i -> i) in
    Peak_util.Rng.shuffle (Peak_util.Rng.create ~seed:(seed * 31)) order;
    for j = 0 to min n max_count_samples - 1 do
      marks.(order.(j)) <- true
    done;
    marks
  in
  (* the pass streams into flat arrays: invocation [i]'s candidate
     values are [ctx.(i * k)] .. [ctx.(i * k + k - 1)] *)
  let k = List.length candidate_sources in
  let ctx = Array.make (n * k) 0.0 in
  let times = Array.make n 0.0 in
  let samples = ref [] in
  let total = ref 0.0 in
  (* one option for the pass: [~context] would box one per invocation *)
  let context = Some candidate_sources in
  for i = 0 to n - 1 do
    let time = Runner.step ?context runner o3 in
    Array.blit (Runner.context runner) 0 ctx (i * k) k;
    times.(i) <- time;
    total := !total +. time;
    (* a sample outlives the invocation; the lent counts do not *)
    if sample_here.(i) then samples := Array.copy (Runner.counts runner) :: !samples
  done;
  let count_samples = Array.of_list (List.rev !samples) in
  let components = Component_analysis.analyze ~samples:count_samples in
  let context =
    match verdict with
    | Context_analysis.Not_applicable reason -> Cbr_no reason
    | Context_analysis.Applicable { sources; runtime_constant_arrays } ->
        (* run-time-constant pruning: drop sources whose observed value
           never changes *)
        let keep = Array.make k false in
        if n > 0 then
          for j = 0 to k - 1 do
            let first = ctx.(j) in
            for i = 1 to n - 1 do
              if ctx.((i * k) + j) <> first then keep.(j) <- true
            done
          done;
        let kept_sources = List.filteri (fun j _ -> keep.(j)) sources in
        let pruned = List.filteri (fun j _ -> not keep.(j)) sources in
        let census, head = census ~ctx ~k ~keep ~times ~total:!total in
        Cbr_ok
          {
            sources = kept_sources;
            n_contexts = Array.length census.counts;
            head;
            census;
            runtime_constant_arrays;
            pruned;
          }
  in
  let avg_component_counts = Component_analysis.avg_counts components ~samples:count_samples in
  let block_weights = o3.Version.block_cycles in
  {
    n_invocations = n;
    avg_invocation_cycles = !total /. float_of_int (max 1 n);
    context;
    components;
    count_samples;
    impure_calls = Tsection.has_impure_calls tsec;
    block_weights;
    avg_component_counts;
    dominant_component = Component_analysis.dominant components ~weights:block_weights;
    ts_pass_cycles = !total;
  }

let n_contexts t =
  match t.context with Cbr_ok { n_contexts; _ } -> Some n_contexts | Cbr_no _ -> None

let dominant_context t = match t.context with Cbr_ok { head; _ } -> head | Cbr_no _ -> None
let dominant_share t = Option.map (fun s -> s.time_share) (dominant_context t)

let contexts t =
  match t.context with
  | Cbr_no _ -> []
  | Cbr_ok { census = c; _ } ->
      let d = Array.length c.counts in
      let stats = Array.init d (stat c) in
      (* a context hashes as its table key did: compare-equal vectors
         hash alike *)
      let hashes = Array.map (fun (s : context_stat) -> Hashtbl.hash s.values) stats in
      let order = Array.init d Fun.id in
      Array.stable_sort (precedes c.shares hashes (buckets d - 1)) order;
      Array.fold_right (fun id acc -> stats.(id) :: acc) order []
