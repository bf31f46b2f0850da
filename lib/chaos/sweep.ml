module Rng = Tussle_prelude.Rng
module Pool = Tussle_prelude.Pool
module Plan = Tussle_fault.Plan

(* [found] precedes [run]: on the fields they share, an unannotated
   [r.Sweep.seed] means a run. *)
type found = {
  scenario : string;
  seed : int;
  plan : Plan.t;
  minimal : Plan.t;
  violations : Invariant.violation list;
  attachment : string;
  file : string option;
  fresh : bool;
}

type run = {
  index : int;
  scenario : string;
  seed : int;
  episodes : int;
  plan : Plan.t;
  violations : Invariant.violation list;
}

(* Per-run derivation depends only on (master seed, index) — never on
   which worker domain picked the item up — so a sweep is byte-
   identical for any --domains count. *)
let draw ~master_seed ~index (s : Scenario.t) =
  let rng = Rng.create (Rng.seed_at ~seed:master_seed index) in
  let episodes = 1 + Rng.int rng 4 in
  let plan = Plan.random rng ~links:s.links ~horizon:s.horizon ~episodes in
  let seed = Rng.int rng 1_000_000 in
  (plan, episodes, seed)

let scenario_for index =
  List.nth Scenario.all (index mod List.length Scenario.all)

let run_one ~master_seed index =
  let s = scenario_for index in
  let plan, episodes, seed = draw ~master_seed ~index s in
  let obs = s.run ~seed ~plan in
  {
    index;
    scenario = s.name;
    seed;
    episodes;
    plan;
    violations = Invariant.check obs;
  }

let run_sweep ~seed ~runs () =
  if runs < 1 then invalid_arg "Sweep.run_sweep: runs must be >= 1";
  Pool.map (run_one ~master_seed:seed) (List.init runs Fun.id)

let failures runs = List.filter (fun r -> r.violations <> []) runs

let still_fails (s : Scenario.t) ~seed plan =
  Invariant.check (s.run ~seed ~plan) <> []

let replay (e : Corpus.entry) =
  Result.map
    (fun (s : Scenario.t) -> Invariant.check (s.run ~seed:e.seed ~plan:e.plan))
    (Scenario.bind e.scenario e.plan)

(* ---------- shrink, explain, persist ---------- *)

let explain_file path = Filename.remove_extension path ^ ".explain.txt"

let resolve ?corpus_dir (s : Scenario.t) ~seed ~plan violations =
  let minimal = Shrink.shrink ~still_fails:(still_fails s ~seed) plan in
  let entry = { Corpus.scenario = s.name; seed; plan = minimal } in
  (* replay the reproducer with the flight recorder on and attach the
     offending flows' causal records to each violation *)
  let er = Explain.run_on s entry in
  let attachment =
    String.concat ""
      (List.map
         (Explain.narrative_of_violation ~entry ~events:er.Explain.events)
         (if er.Explain.violations = [] then violations
          else er.Explain.violations))
  in
  (* the corpus dedupes by (scenario, plan text): a re-found violation
     points at the existing file instead of creating a second one *)
  let file, fresh =
    match corpus_dir with
    | None -> (None, false)
    | Some dir ->
      let dup = Corpus.find_duplicate ~dir entry in
      let path = match dup with Some p -> p | None -> Corpus.save ~dir entry in
      Out_channel.with_open_bin (explain_file path) (fun oc ->
          output_string oc attachment);
      (Some path, dup = None)
  in
  { scenario = s.name; seed; plan; minimal; violations; attachment; file; fresh }

(* ---------- tussle chaos ---------- *)

type sweep = { master_seed : int; runs : int; found : (run * found) list }

let sweep ?corpus_dir ~seed ~runs () =
  let found =
    List.map
      (fun r ->
        ( r,
          resolve ?corpus_dir (scenario_for r.index) ~seed:r.seed ~plan:r.plan
            r.violations ))
      (failures (run_sweep ~seed ~runs ()))
  in
  { master_seed = seed; runs; found }

let plural n one many = if n = 1 then one else many

(* Each non-empty line of [text], indented by [pad]. *)
let indent b pad text =
  String.split_on_char '\n' text
  |> List.iter (fun line -> if line <> "" then Printf.bprintf b "%s%s\n" pad line)

let render_sweep t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "chaos sweep: %d runs from seed %d over %s; invariants: %s\n"
    t.runs t.master_seed
    (String.concat ", " (List.map (fun (s : Scenario.t) -> s.name) Scenario.all))
    (String.concat ", " Invariant.names);
  List.iter
    (fun ((r : run), f) ->
      Printf.bprintf b "run %04d %s seed=%d episodes=%d: VIOLATION\n" r.index
        r.scenario r.seed r.episodes;
      List.iter
        (fun v -> Printf.bprintf b "  %s\n" (Invariant.violation_string v))
        r.violations;
      let n = List.length f.minimal in
      Printf.bprintf b "  shrunk %d -> %d episode%s:\n" (List.length r.plan) n
        (plural n "" "s");
      indent b "    " (Plan.to_string f.minimal);
      indent b "  " f.attachment;
      Option.iter
        (fun path ->
          Printf.bprintf b "  saved %s\n  saved %s\n" path (explain_file path))
        f.file)
    t.found;
  let n = List.length t.found in
  Printf.bprintf b "chaos sweep: %d/%d runs clean, %d violation%s\n" (t.runs - n)
    t.runs n (plural n "" "s");
  Buffer.contents b

type replayed = {
  dir : string;
  entries :
    (string * (Corpus.entry * Invariant.violation list, string) result) list;
}

let replay_dir dir =
  Result.map
    (fun entries ->
      {
        dir;
        entries =
          List.map
            (fun (path, entry) ->
              (* an entry that does not load, names an unknown scenario
                 or does not fit its scenario is a LOAD ERROR *)
              ( Filename.basename path,
                Result.bind entry (fun e ->
                    Result.map (fun vs -> (e, vs)) (replay e)) ))
            entries;
      })
    (Corpus.load_dir dir)

let failing r =
  List.length
    (List.filter (function _, Ok (_, []) -> false | _ -> true) r.entries)

let render_replay r =
  let b = Buffer.create 1024 in
  let n = List.length r.entries in
  Printf.bprintf b "chaos replay: %d corpus entr%s under %s\n" n
    (plural n "y" "ies") r.dir;
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Error msg -> Printf.bprintf b "  %s: LOAD ERROR %s\n" name msg
      | Ok ((e : Corpus.entry), []) ->
        let k = List.length e.plan in
        Printf.bprintf b "  %s: ok (%s, seed %d, %d episode%s)\n" name
          e.scenario e.seed k (plural k "" "s")
      | Ok (_, violations) ->
        Printf.bprintf b "  %s: VIOLATION\n" name;
        List.iter
          (fun v -> Printf.bprintf b "    %s\n" (Invariant.violation_string v))
          violations)
    r.entries;
  (match failing r with
  | 0 -> Printf.bprintf b "chaos replay: all clean\n"
  | k ->
    Printf.bprintf b "chaos replay: %d failing entr%s\n" k (plural k "y" "ies"));
  Buffer.contents b
