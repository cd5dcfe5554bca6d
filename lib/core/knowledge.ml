open Peak_compiler
open Peak_workload

let dims = Peak_ir.Features.vector_dims @ Effects.machine_signature_dims

let program_features (b : Benchmark.t) (m : Peak_machine.Machine.t) =
  let tsec = Tsection.make b.Benchmark.ts in
  Array.append
    (Peak_ir.Features.vector tsec.Tsection.features)
    (Effects.machine_signature m tsec.Tsection.features)

let features ~benchmark ~machine =
  match (Registry.by_name benchmark, Peak_machine.Machine.by_name machine) with
  | Some b, Some m -> Some (program_features b m)
  | _ -> None

let build ~dir = Peak_store.Kb.build ~dir ~features

let recommend kb ~benchmark ~machine ?k ?exclude () =
  match features ~benchmark ~machine with
  | None -> []
  | Some fv -> Peak_store.Kb.recommend kb ~features:fv ~machine ?k ?exclude ()

let start kb (b : Benchmark.t) (m : Peak_machine.Machine.t) =
  match
    Peak_store.Kb.recommend kb ~features:(program_features b m) ~machine:m.Peak_machine.Machine.name
      ()
  with
  | r :: _ -> Some r
  | [] -> None
