type align = Left | Right | Center

type t = {
  title : string option;
  header : string list;
  arity : int;
  mutable rows : string list list;  (* reverse order *)
}

let create ?title ~header () =
  let arity = List.length header in
  if arity = 0 then invalid_arg "Table.create: empty header";
  { title; header; arity; rows = [] }

let add_row t cells =
  if List.length cells <> t.arity then invalid_arg "Table.add_row: arity mismatch";
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
    | Center ->
        let left = (width - n) / 2 in
        String.make left ' ' ^ s ^ String.make (width - n - left) ' '

let render ?align t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.header) in
  List.iter
    (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
    rows;
  let aligns =
    match align with
    | Some a when List.length a = t.arity -> Array.of_list a
    | Some _ -> invalid_arg "Table.render: align arity mismatch"
    | None -> Array.init t.arity (fun i -> if i = 0 then Left else Right)
  in
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells align_per_col cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad (align_per_col i) widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf title;
      Buffer.add_char buf '\n'
  | None -> ());
  rule ();
  emit_cells (fun _ -> Center) t.header;
  rule ();
  List.iter (emit_cells (fun i -> aligns.(i))) rows;
  rule ();
  Buffer.contents buf

let print ?align t = print_string (render ?align t)

let fmt_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let fmt_percent ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals (v *. 100.0)

let fmt_signed_percent ?(decimals = 1) v =
  (* The sign comes from the rounded text, not the raw float: a tiny
     regression that rounds to zero must print "0.0%", never "-0.0%",
     and anything positive gets an explicit "+" so gains and losses read
     consistently across every table. *)
  let s = Printf.sprintf "%.*f" decimals v in
  let zero = Printf.sprintf "%.*f" decimals 0.0 in
  if s = zero || s = "-" ^ zero then zero ^ "%"
  else if s.[0] = '-' then s ^ "%"
  else "+" ^ s ^ "%"
