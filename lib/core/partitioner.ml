open Peak_workload

type section_profile = {
  section : Program.section;
  tsec : Tsection.t;
  profile : Profile.t;
  time_share : float;
}

let profile_program ?(seed = 11) (program : Program.t) machine dataset =
  let raw =
    List.map
      (fun (section : Program.section) ->
        let tsec = Tsection.make section.Program.ts in
        let trace = section.Program.trace dataset ~seed in
        let profile = Profile.run ~seed tsec trace machine in
        (section, tsec, profile))
      program.Program.sections
  in
  let total_section_cycles =
    List.fold_left (fun acc (_, _, p) -> acc +. p.Profile.ts_pass_cycles) 0.0 raw
  in
  let sectionable = 1.0 -. program.Program.serial_fraction in
  List.map
    (fun (section, tsec, profile) ->
      {
        section;
        tsec;
        profile;
        time_share =
          (if total_section_cycles > 0.0 then
             profile.Profile.ts_pass_cycles /. total_section_cycles *. sectionable
           else 0.0);
      })
    raw
  |> List.sort (fun a b -> compare b.time_share a.time_share)

let select ?(min_share = 0.10) ?(max_sections = 8) profiles =
  List.filteri (fun i sp -> i < max_sections && sp.time_share >= min_share) profiles

type section_result = {
  sp : section_profile;
  method_used : Method.t;
  result : Driver.result;
  section_improvement_pct : float;
}

type program_result = {
  sections : section_result list;
  skipped : section_profile list;
  program_improvement_pct : float;
  tuning_seconds : float;
}

(* Wrap a program section as a standalone benchmark so the section driver
   can run unchanged; the share drives its non-TS accounting. *)
let as_benchmark (program : Program.t) (sp : section_profile) =
  {
    Benchmark.name = program.Program.name ^ "." ^ sp.section.Program.name;
    ts_name = sp.section.Program.name;
    kind = Benchmark.Floating_point;
    ts = sp.section.Program.ts;
    paper_invocations = "n/a";
    paper_method = "n/a";
    scale = "n/a";
    time_share = Float.max 0.01 sp.time_share;
    trace = sp.section.Program.trace;
  }

let tune_program ?(seed = 11) ?min_share ?max_sections (program : Program.t) machine dataset
    =
  let profiles = profile_program ~seed program machine dataset in
  let selected = select ?min_share ?max_sections profiles in
  let skipped = List.filter (fun sp -> not (List.memq sp selected)) profiles in
  let sections =
    List.map
      (fun sp ->
        let b = as_benchmark program sp in
        let method_ = Driver.auto_method sp.profile sp.tsec in
        let result = Driver.tune ~seed ~method_ b machine dataset in
        (* TS-level speedup, noise-free on the ref data set *)
        let on_ref = Driver.pass_summary ~seed b machine Trace.Ref in
        let section config = Driver.summary_section_cycles on_ref config in
        let section_improvement_pct =
          ((section Peak_compiler.Optconfig.o3 /. section result.Driver.best_config) -. 1.0)
          *. 100.0
        in
        { sp; method_used = method_; result; section_improvement_pct })
      selected
  in
  let tuned_time =
    List.fold_left
      (fun acc sr ->
        acc +. (sr.sp.time_share /. (1.0 +. (sr.section_improvement_pct /. 100.0))))
      0.0 sections
  in
  let untouched =
    program.Program.serial_fraction
    +. List.fold_left (fun acc sp -> acc +. sp.time_share) 0.0 skipped
  in
  let program_improvement_pct = ((1.0 /. (tuned_time +. untouched)) -. 1.0) *. 100.0 in
  {
    sections;
    skipped;
    program_improvement_pct;
    tuning_seconds =
      List.fold_left (fun acc sr -> acc +. sr.result.Driver.tuning_seconds) 0.0 sections;
  }
