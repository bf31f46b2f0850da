(* Backend dispatch + report assembly: load the seed corpus, run the
   named backend over the chaos scenario registry, and package the
   outcome as a `tussle.search-report/1` artifact.  Everything the
   caller prints comes from the report, so the text is byte-identical
   for the same (backend, seed, budget) whatever --domains is. *)

module Plan = Tussle_fault.Plan
module Scenario = Tussle_chaos.Scenario
module Invariant = Tussle_chaos.Invariant
module Corpus = Tussle_chaos.Corpus
module Sweep = Tussle_chaos.Sweep
module Search_report = Tussle_obs.Search_report

let backend_names = [ Mutate.name; Exhaust.name ]

let backend_of_name name : (module Backend.BACKEND) option =
  if name = Mutate.name then Some (module Mutate)
  else if name = Exhaust.name then Some (module Exhaust)
  else None

let finding_of_found (f : Sweep.found) =
  {
    Search_report.scenario = f.scenario;
    seed = f.seed;
    found_episodes = List.length f.plan;
    minimal_plan = Plan.to_string f.minimal;
    invariants = List.map (fun v -> v.Invariant.invariant) f.violations;
    corpus_file = Option.value ~default:"" f.file;
  }

let run ?corpus_dir ~backend ~seed ~budget () =
  match backend_of_name backend with
  | None ->
    Error
      (Printf.sprintf "unknown backend %S (expected %s)" backend
         (String.concat " or " backend_names))
  | Some (module B) ->
    let scenarios = Scenario.all in
    (* a missing corpus directory seeds nothing: the first save
       creates it *)
    let seeds =
      match Option.map Corpus.load_dir corpus_dir with
      | None | Some (Error _) -> []
      | Some (Ok entries) ->
        List.filter_map (fun (_, r) -> Result.to_option r) entries
    in
    let o = B.search ?corpus_dir ~seeds ~scenarios ~seed ~budget () in
    let corpus_added =
      List.length (List.filter (fun f -> f.Sweep.fresh) o.Backend.found)
    in
    let report =
      Search_report.make ~label:"search" ?corpus_dir ~backend:o.Backend.backend
        ~search_seed:seed ~budget ~runs:o.Backend.runs ~seeded:o.Backend.seeded
        ~space:o.Backend.space ~certified:o.Backend.certified
        ~frontier:o.Backend.frontier ~corpus_added
        (List.map finding_of_found o.Backend.found)
    in
    Ok (report, o)
