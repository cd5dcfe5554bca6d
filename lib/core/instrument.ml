open Peak_ir

let source_to_c = function
  | Expr.Scalar v -> v
  | Expr.Array_elem (a, Some k) -> Printf.sprintf "%s[%d]" a k
  | Expr.Array_elem (a, None) -> a ^ "[*]"
  | Expr.Pointer_deref p -> "*" ^ p

let region_to_c name = function
  | Liveness.Whole -> Printf.sprintf "%s (whole array)" name
  | Liveness.Cells cs ->
      Printf.sprintf "%s cells {%s}" name (String.concat ", " (List.map string_of_int cs))
  | Liveness.Span (lo, hi) ->
      Printf.sprintf "%s[%s .. %s)" name (Expr.to_string lo) (Expr.to_string hi)
  | Liveness.Union rs ->
      String.concat " and "
        (List.map
           (fun r ->
             match r with
             | Liveness.Whole -> name ^ " (whole array)"
             | Liveness.Cells cs ->
                 Printf.sprintf "%s cells {%s}" name
                   (String.concat ", " (List.map string_of_int cs))
             | Liveness.Span (lo, hi) ->
                 Printf.sprintf "%s[%s .. %s)" name (Expr.to_string lo) (Expr.to_string hi)
             | Liveness.Union _ -> name)
           rs)

let render (tsec : Tsection.t) (profile : Profile.t) (advice : Consultant.advice) =
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let ts = tsec.Tsection.ts in
  let lv = tsec.Tsection.liveness in
  out "/* ================================================================";
  out " * PEAK instrumented tuning section: %s" ts.Types.name;
  out " * Rating approach: %s (applicable: %s)"
    (Method.name advice.Consultant.chosen)
    (String.concat ", " (List.map Method.name advice.Consultant.applicable));
  out " * ================================================================ */";
  out "";
  (* (1) RBR save/restore + precondition *)
  let modified = Liveness.modified_input lv in
  if List.mem Method.Rbr advice.Consultant.applicable then begin
    out "/* (1) re-execution support: Modified_Input(TS) = Input n Def */";
    if Loc.Set.is_empty modified then out "static void peak_save(void)    { /* empty */ }"
    else begin
      out "static void peak_save(void) {";
      Loc.Set.iter
        (fun loc ->
          match loc with
          | Loc.Scalar v -> out "  peak_save_scalar(%s);" v
          | Loc.Pointer p -> out "  peak_save_pointer(%s);" p
          | Loc.Array a ->
              out "  peak_save_region(%s);  /* %s */" a
                (region_to_c a (Liveness.modified_region lv loc)))
        modified;
      out "}"
    end;
    out "static void peak_precondition(void) { /* stripped copy of %s: warms the cache */ }"
      ts.Types.name;
    out ""
  end;
  (* (2) CBR context capture *)
  (match profile.Profile.context with
  | Profile.Cbr_ok { sources; runtime_constant_arrays; pruned; n_contexts; _ } ->
      out "/* (2) context capture: %d distinct context(s) observed in the profile */" n_contexts;
      if sources = [] then out "/*     all context variables are run-time constants */"
      else
        out "static void peak_context(void) { peak_record(%s); }"
          (String.concat ", " (List.map source_to_c sources));
      if pruned <> [] then
        out "/*     pruned run-time constants: %s */"
          (String.concat ", " (List.map source_to_c pruned));
      if runtime_constant_arrays <> [] then
        out "/*     run-time-constant arrays feeding control: %s */"
          (String.concat ", " runtime_constant_arrays)
  | Profile.Cbr_no reason -> out "/* (2) CBR not applicable: %s */" reason);
  out "";
  (* (3) MBR counters *)
  let components = profile.Profile.components in
  let reps = Component_analysis.representatives components in
  out "/* (3) performance model: %d component(s); counters on representative"
    (Component_analysis.n_components components);
  out " *     blocks %s; merged blocks' counters removed after the profile */"
    (if reps = [] then "(none: constant component only)"
     else String.concat ", " (List.map (Printf.sprintf "B%d") reps));
  List.iter (fun b -> out "static long peak_counter_B%d;" b) reps;
  out "";
  (* (4) timing wrapper + body *)
  out "/* (4) timing instrumentation triggering the rating */";
  out "double peak_timed_%s(void) {" ts.Types.name;
  out "  peak_timer_t t0 = peak_now();";
  out "  %s(...);" ts.Types.name;
  out "  return peak_elapsed(t0);  /* -> EVAL/VAR window */";
  out "}";
  out "";
  (* (5) activation *)
  out "/* (5) main() is instrumented to activate tuning:";
  out " *     peak_tune_section(\"%s\", /* versions from the Remote Optimizer */);"
    ts.Types.name;
  out " */";
  out "";
  Buffer.add_string buf (Pretty.ts_to_c ts);
  Buffer.contents buf
