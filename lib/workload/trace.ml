type t = {
  name : string;
  length : int;
  init : Peak_ir.Interp.env -> unit;
  setup : int -> Peak_ir.Interp.env -> unit;
  class_of : (int -> int) option;
  mutated_arrays : string list;
}

type dataset = Train | Ref

let dataset_name = function Train -> "train" | Ref -> "ref"

let dataset_of_string name =
  match String.lowercase_ascii name with
  | "train" -> Ok Train
  | "ref" -> Ok Ref
  | other -> Error ("unknown dataset " ^ other ^ " (train | ref)")

let make ~name ~length ?(init = fun _ -> ()) ?class_of ?(mutated_arrays = []) setup =
  if length <= 0 then invalid_arg "Trace.make: nonpositive length";
  { name; length; init; setup; class_of; mutated_arrays }

let scaled_length dataset n = match dataset with Train -> n | Ref -> 3 * n
