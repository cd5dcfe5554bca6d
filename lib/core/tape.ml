open Peak_ir
open Peak_workload

(* What interpreting the trace needs; built on the first extension. *)
type engine = {
  trace : Trace.t;
  env : Interp.env;
  compiled : Interp.compiled;
  scratch : Interp.scratch;
  class_cache : (int, Interp.result) Hashtbl.t;
}

type record = {
  context : float array;  (** candidate sources, in candidate order *)
  result : Interp.result;
  payload : int;
  faults : (int * exn) list;
      (** reads that raised: a candidate's index, or -1 for the payload *)
}

type shared = {
  lock : Mutex.t;
  extent : int Atomic.t;  (** records published *)
  (* written under [lock] before [extent] moves past them, so a reader
     that saw [extent] > k finds record k (in this array or a newer one) *)
  mutable records : record array;
  mutable candidates : Interp.source_handle array;  (** resolved at ordinal 0 *)
  mutable failure : exn option;  (** raised extending ordinal [extent] *)
}

(* The one ordinal a private tape holds; [result] is [unread] and
   [payload] negative until its reader asks for them.  Once interpreted,
   [result] is the class cache's or the scratch's lent counters
   ({!Interp.lent_result}). *)
type cursor = {
  mutable ordinal : int;
  mutable result : Interp.result;
  mutable payload : int;
}

type mode = Shared of shared | Private of cursor

type t = {
  tsec : Tsection.t;
  name : string;
  length : int;
  build : unit -> Trace.t;
  mutable engine : engine option;
  mutable interpreted : int;
  mutable steps : int;
  mode : mode;
}

let unread = { Interp.block_counts = [||]; touches = [||] }

let shared tsec ~name ~length build =
  let sh =
    {
      lock = Mutex.create ();
      extent = Atomic.make 0;
      records = [||];
      candidates = [||];
      failure = None;
    }
  in
  { tsec; name; length; build; engine = None; interpreted = 0; steps = 0; mode = Shared sh }

let of_trace tsec (trace : Trace.t) =
  {
    tsec;
    name = trace.Trace.name;
    length = trace.Trace.length;
    build = (fun () -> trace);
    engine = None;
    interpreted = 0;
    steps = 0;
    mode = Private { ordinal = -1; result = unread; payload = -1 };
  }

let tsection t = t.tsec
let name t = t.name
let length t = t.length

let engine t =
  match t.engine with
  | Some e -> e
  | None ->
      let trace = t.build () in
      if trace.Trace.name <> t.name || trace.Trace.length <> t.length then
        invalid_arg
          (Printf.sprintf "Tape: trace %s/%d built for a tape of %s/%d" trace.Trace.name
             trace.Trace.length t.name t.length);
      (* compile once against the tape's environment; every invocation
         reuses the same instruction arrays and scratch *)
      let env = Interp.make_env t.tsec.Tsection.ts in
      let compiled = Interp.compile t.tsec.Tsection.cfg env in
      let e =
        {
          trace;
          env;
          compiled;
          scratch = Interp.make_scratch compiled;
          class_cache = Hashtbl.create 16;
        }
      in
      t.engine <- Some e;
      e

(* Program start at every pass boundary, then the invocation's setup. *)
let setup t e k =
  let pos = k mod t.length in
  if pos = 0 then e.trace.Trace.init e.env;
  e.trace.Trace.setup pos e.env

let run t e =
  Interp.run_compiled e.compiled e.scratch;
  t.interpreted <- t.interpreted + 1;
  t.steps <- t.steps + Interp.scratch_steps e.scratch

(* Interpret ordinal [k].  The result is the class cache's when the
   trace declares the class seen, else the scratch's counters: lent,
   since the next interpretation overwrites them, or with [copy] a
   snapshot. *)
let interpret t e k ~copy =
  match e.trace.Trace.class_of with
  | None ->
      run t e;
      if copy then Interp.result_of_scratch e.scratch else Interp.lent_result e.scratch
  | Some class_of -> (
      let c = class_of (k mod t.length) in
      match Hashtbl.find e.class_cache c with
      | r -> r
      | exception Not_found ->
          run t e;
          (* the cache outlives the invocation: a snapshot *)
          let r = Interp.result_of_scratch e.scratch in
          Hashtbl.add e.class_cache c r;
          r)

(* ---------------- shared ---------------- *)

let candidates_of tsec (trace : Trace.t) =
  match Context_analysis.analyze tsec ~mutated_arrays:trace.Trace.mutated_arrays with
  | Context_analysis.Applicable { sources; _ } ->
      Array.of_list (List.map Interp.source_handle sources)
  | Context_analysis.Not_applicable _ -> [||]

(* Extension starts at ordinal 0, which builds the engine. *)
let record t sh k =
  let e = engine t in
  if k = 0 then sh.candidates <- candidates_of t.tsec e.trace;
  setup t e k;
  let faults = ref [] in
  let context = Array.make (Array.length sh.candidates) Float.nan in
  Array.iteri
    (fun j h ->
      try Interp.read_handle_into h e.env context j with ex -> faults := (j, ex) :: !faults)
    sh.candidates;
  let result = interpret t e k ~copy:true in
  let payload =
    match Snapshot.measure_bytes t.tsec e.env with
    | b -> b
    | exception ex ->
        faults := (-1, ex) :: !faults;
        0
  in
  { context; result; payload; faults = !faults }

(* Under [sh.lock]: publish records up to and including [k], in order.
   A raising extension publishes nothing for its ordinal and poisons the
   tape there — the environment is mid-invocation — so every later
   reader of that ordinal gets the same exception. *)
let extend t sh k =
  let rec go () =
    let n = Atomic.get sh.extent in
    if n <= k then begin
      Option.iter raise sh.failure;
      match record t sh n with
      | r ->
          if n >= Array.length sh.records then begin
            let grown = Array.make (max 256 (2 * n)) r in
            Array.blit sh.records 0 grown 0 n;
            sh.records <- grown
          end;
          sh.records.(n) <- r;
          Atomic.set sh.extent (n + 1);
          go ()
      | exception ex ->
          sh.failure <- Some ex;
          raise ex
    end
  in
  go ()

let get sh k =
  if k >= Atomic.get sh.extent then invalid_arg "Tape: ordinal read before seek";
  sh.records.(k)

let fault (r : record) j =
  match r.faults with
  | [] -> ()
  | faults -> Option.iter raise (List.assoc_opt j faults)

let candidate sh src =
  let rec find j =
    if j >= Array.length sh.candidates then
      invalid_arg "Tape.context: not a candidate context source of the section"
    else if Interp.handle_source sh.candidates.(j) = src then j
    else find (j + 1)
  in
  find 0

(* ---------------- private ---------------- *)

let current c k =
  if k <> c.ordinal then invalid_arg "Tape: a private tape holds only its newest ordinal"

let private_result t c k =
  current c k;
  if c.result == unread then c.result <- interpret t (engine t) k ~copy:false;
  c.result

(* ---------------- readers ---------------- *)

let seek t k =
  match t.mode with
  | Shared sh -> if k >= Atomic.get sh.extent then Mutex.protect sh.lock (fun () -> extend t sh k)
  | Private c ->
      if k <> c.ordinal + 1 then invalid_arg "Tape.seek: a private tape is read in order";
      setup t (engine t) k;
      c.ordinal <- k;
      c.result <- unread;
      c.payload <- -1

let context_into t k sources dst =
  match t.mode with
  | Shared sh ->
      let r = get sh k in
      for j = 0 to Array.length sources - 1 do
        let c = candidate sh (Interp.handle_source sources.(j)) in
        fault r c;
        dst.(j) <- r.context.(c)
      done
  | Private c ->
      current c k;
      if c.result != unread then invalid_arg "Tape.context_into: read after the interpreter ran";
      let env = (engine t).env in
      for j = 0 to Array.length sources - 1 do
        Interp.read_handle_into sources.(j) env dst j
      done

let result t k =
  match t.mode with Shared sh -> (get sh k).result | Private c -> private_result t c k

let payload t k =
  match t.mode with
  | Shared sh ->
      let r = get sh k in
      fault r (-1);
      r.payload
  | Private c ->
      ignore (private_result t c k);
      if c.payload < 0 then c.payload <- Snapshot.measure_bytes t.tsec (engine t).env;
      c.payload

let recorded t =
  match t.mode with Shared sh -> Atomic.get sh.extent | Private c -> c.ordinal + 1

let interpreted t = t.interpreted
let steps t = t.steps
