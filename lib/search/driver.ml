(* Backend dispatch + report assembly: load the seed corpus, run the
   named backend over the chaos scenario registry, and package the
   outcome as a `tussle.search-report/1` artifact.  Everything the
   caller prints comes from the report, so the text is byte-identical
   for the same (backend, seed, budget) whatever --domains is. *)

module Plan = Tussle_fault.Plan
module Scenario = Tussle_chaos.Scenario
module Invariant = Tussle_chaos.Invariant
module Corpus = Tussle_chaos.Corpus
module Search_report = Tussle_obs.Search_report

let backend_names = [ Mutate.name; Exhaust.name ]

let backend_of_name name : (module Backend.BACKEND) option =
  if name = Mutate.name then Some (module Mutate)
  else if name = Exhaust.name then Some (module Exhaust)
  else None

let finding_of_found (f : Backend.found) =
  {
    Search_report.scenario = f.Backend.scenario;
    seed = f.Backend.seed;
    found_episodes = List.length f.Backend.plan;
    minimal_plan = Plan.to_string f.Backend.minimal;
    invariants =
      List.map (fun v -> v.Invariant.invariant) f.Backend.violations;
    corpus_file = Option.value ~default:"" f.Backend.file;
  }

let run ?domains ?corpus_dir ~backend ~seed ~budget () =
  match backend_of_name backend with
  | None ->
    Error
      (Printf.sprintf "unknown backend %S (expected %s)" backend
         (String.concat " or " backend_names))
  | Some (module B) ->
    let scenarios = Scenario.all in
    let known = List.map (fun s -> s.Scenario.name) scenarios in
    let seeds =
      match corpus_dir with
      | None -> []
      | Some dir ->
        List.filter_map
          (fun (_, r) -> Result.to_option r)
          (Corpus.load_dir ~known dir)
    in
    let o = B.search ?domains ?corpus_dir ~seeds ~scenarios ~seed ~budget () in
    let corpus_added =
      List.length (List.filter (fun f -> f.Backend.fresh) o.Backend.found)
    in
    let report =
      Search_report.make ~label:"search" ?corpus_dir ~backend:o.Backend.backend
        ~search_seed:seed ~budget ~runs:o.Backend.runs ~seeded:o.Backend.seeded
        ~space:o.Backend.space ~certified:o.Backend.certified
        ~frontier:o.Backend.frontier ~corpus_added
        (List.map finding_of_found o.Backend.found)
    in
    Ok (report, o)
