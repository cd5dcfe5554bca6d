type t = {
  config : Optconfig.t;
  machine : Peak_machine.Machine.t;
  block_cycles : float array;
  workloads : Peak_machine.Cost.workload array;
}

let compile machine ts config =
  let workloads = Effects.optimize machine ts config in
  let block_cycles = Array.map (Peak_machine.Cost.cycles machine) workloads in
  { config; machine; block_cycles; workloads }

let invocation_cycles t ~counts =
  let cycles = t.block_cycles in
  if Array.length counts <> Array.length cycles then
    invalid_arg "Version.invocation_cycles: block count mismatch";
  (* a loop over a local accumulator keeps the sum unboxed *)
  let acc = ref 0.0 in
  for b = 0 to Array.length counts - 1 do
    acc := !acc +. (float_of_int counts.(b) *. cycles.(b))
  done;
  !acc

let compare_speed a b ~counts =
  invocation_cycles a ~counts /. invocation_cycles b ~counts
