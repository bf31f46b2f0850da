(* Search report: the `tussle.search-report/1` artifact emitted by
   `tussle search`.  Same discipline as the sweep report: schema tag,
   decoder built from [Json]'s combinators, and no
   wall-clock or domain-count field anywhere — the search's contract
   is byte-identical output across --domains and across repeated runs
   at the same seed, so everything derives from (seed, config) alone. *)

type finding = {
  scenario : string;
  seed : int;  (* injection seed the violation reproduces with *)
  found_episodes : int;  (* plan size as found, before shrinking *)
  minimal_plan : string;  (* 1-minimal reproducer, Plan.to_string *)
  invariants : string list;  (* names of the violated invariants *)
  corpus_file : string;  (* persisted path; "" when not persisted *)
}

type t = {
  label : string;
  backend : string;
  search_seed : int;
  budget : int;
  runs : int;  (* plans actually evaluated *)
  seeded : int;  (* corpus + fresh-draw candidates that primed the search *)
  space : int;  (* bounded-exhaustive box size; 0 for open-ended backends *)
  certified : bool;  (* whole box enumerated and came back clean *)
  frontier : int list;  (* cumulative distinct behavior signatures, per batch *)
  corpus_added : int;  (* findings persisted as NEW corpus files *)
  corpus_dir : string;  (* "" when persistence was disabled *)
  findings : finding list;
}

let schema_tag = "tussle.search-report/1"

let frontier_size t =
  match List.rev t.frontier with [] -> 0 | last :: _ -> last

let finding_to_json f =
  Json.Obj
    [
      ("scenario", Json.Str f.scenario);
      ("seed", Json.Int f.seed);
      ("found_episodes", Json.Int f.found_episodes);
      ("minimal_plan", Json.Str f.minimal_plan);
      ("invariants", Json.List (List.map (fun n -> Json.Str n) f.invariants));
      ("corpus_file", Json.Str f.corpus_file);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_tag);
      ("label", Json.Str t.label);
      ("backend", Json.Str t.backend);
      ("search_seed", Json.Int t.search_seed);
      ("budget", Json.Int t.budget);
      ("runs", Json.Int t.runs);
      ("seeded", Json.Int t.seeded);
      ("space", Json.Int t.space);
      ("certified", Json.Bool t.certified);
      ("frontier", Json.List (List.map (fun n -> Json.Int n) t.frontier));
      ("corpus_dir", Json.Str t.corpus_dir);
      ( "summary",
        Json.Obj
          [
            ("runs", Json.Int t.runs);
            ("frontier", Json.Int (frontier_size t));
            ("violations", Json.Int (List.length t.findings));
            ("corpus_added", Json.Int t.corpus_added);
          ] );
      ("findings", Json.List (List.map finding_to_json t.findings));
    ]

(* ---------- parsing ---------- *)

let ( let* ) = Json.( let* )

let finding_of_json j =
  let* scenario = Json.field "scenario" Json.to_str j in
  let* seed = Json.field "seed" Json.to_int j in
  let* found_episodes = Json.field "found_episodes" Json.to_int j in
  let* minimal_plan = Json.field "minimal_plan" Json.to_str j in
  let* invariants = Json.field "invariants" Json.to_list j in
  let* invariants =
    Json.list
      (fun n ->
        match Json.to_str n with
        | Some s -> Ok s
        | None -> Error "finding: non-string invariant name")
      invariants
  in
  let* corpus_file = Json.field "corpus_file" Json.to_str j in
  Ok { scenario; seed; found_episodes; minimal_plan; invariants; corpus_file }

let of_json json =
  let* schema = Json.field "schema" Json.to_str json in
  let* () =
    if schema = schema_tag then Ok ()
    else
      Error (Printf.sprintf "unknown schema %S (expected %S)" schema schema_tag)
  in
  let* label = Json.field "label" Json.to_str json in
  let* backend = Json.field "backend" Json.to_str json in
  let* search_seed = Json.field "search_seed" Json.to_int json in
  let* budget = Json.field "budget" Json.to_int json in
  let* runs = Json.field "runs" Json.to_int json in
  let* seeded = Json.field "seeded" Json.to_int json in
  let* space = Json.field "space" Json.to_int json in
  let* certified = Json.field "certified" Json.to_bool json in
  let* frontier = Json.field "frontier" Json.to_list json in
  let* frontier =
    Json.list
      (fun n ->
        match Json.to_int n with
        | Some i -> Ok i
        | None -> Error "frontier: non-integer entry")
      frontier
  in
  let* corpus_dir = Json.field "corpus_dir" Json.to_str json in
  let* findings = Json.field "findings" Json.to_list json in
  let* findings = Json.list finding_of_json findings in
  let* summary = Json.field "summary" Option.some json in
  let* corpus_added = Json.field "corpus_added" Json.to_int summary in
  Ok
    {
      label;
      backend;
      search_seed;
      budget;
      runs;
      seeded;
      space;
      certified;
      frontier;
      corpus_added;
      corpus_dir;
      findings;
    }

(* ---------- validation ---------- *)

(* Budget accounting: the mutate backend spends its whole budget, the
   exhaust backend runs min(budget, space), and only an exhausted box
   with no findings is certified. *)
let check_budget t =
  if t.budget < 1 then
    Error (Printf.sprintf "budget must be >= 1 (got %d)" t.budget)
  else if t.runs < 0 || t.runs > t.budget then
    Error (Printf.sprintf "%d runs for budget %d" t.runs t.budget)
  else if t.backend = "mutate" && t.runs <> t.budget then
    Error
      (Printf.sprintf "mutate backend must spend its whole budget: %d of %d"
         t.runs t.budget)
  else if t.backend = "exhaust" && t.runs <> min t.budget t.space then
    Error
      (Printf.sprintf
         "exhaust backend ran %d plans; expected min(budget %d, space %d)"
         t.runs t.budget t.space)
  else if
    t.certified
    && (t.backend <> "exhaust" || t.runs <> t.space || t.findings <> [])
  then Error "certification requires an exhausted box with no findings"
  else Ok ()

(* The coverage frontier starts at 0, never shrinks, never counts more
   signatures than runs, and grows for any non-empty run. *)
let check_frontier t =
  let rec walk prev = function
    | [] -> Ok ()
    | n :: rest ->
      if n < prev then
        Error (Printf.sprintf "coverage frontier shrank: %d -> %d" prev n)
      else walk n rest
  in
  let* () = walk 0 t.frontier in
  let final = frontier_size t in
  if final > t.runs then
    Error
      (Printf.sprintf "%d distinct signatures from only %d runs" final t.runs)
  else if t.runs > 0 && final = 0 then
    Error (Printf.sprintf "%d runs grew no coverage at all" t.runs)
  else Ok ()

let check_finding f =
  if f.scenario = "" then Error "finding with empty scenario name"
  else if f.minimal_plan = "" then
    Error
      (Printf.sprintf "finding %s: empty minimal plan (nothing to replay)"
         f.scenario)
  else if f.invariants = [] then
    Error (Printf.sprintf "finding %s: no violated invariant named" f.scenario)
  else Ok ()

let validate json =
  let* t = of_json json in
  let* summary = Json.field "summary" Option.some json in
  let* s_runs = Json.field "runs" Json.to_int summary in
  let* s_frontier = Json.field "frontier" Json.to_int summary in
  let* s_violations = Json.field "violations" Json.to_int summary in
  let* () = check_budget t in
  let* () =
    if s_runs = t.runs then Ok ()
    else Error (Printf.sprintf "summary.runs=%d but runs=%d" s_runs t.runs)
  in
  let* () =
    if s_frontier = frontier_size t then Ok ()
    else
      Error
        (Printf.sprintf "summary.frontier=%d but frontier ends at %d" s_frontier
           (frontier_size t))
  in
  let* () = check_frontier t in
  let* () =
    if s_violations = List.length t.findings then Ok ()
    else
      Error
        (Printf.sprintf "summary.violations=%d but %d findings listed"
           s_violations (List.length t.findings))
  in
  let persisted = List.filter (fun f -> f.corpus_file <> "") t.findings in
  let* () =
    if t.corpus_added >= 0 && t.corpus_added <= List.length persisted then Ok ()
    else
      Error
        (Printf.sprintf "corpus_added=%d but %d findings carry a corpus file"
           t.corpus_added (List.length persisted))
  in
  Json.list check_finding t.findings |> Result.map ignore

(* ---------- rendering ---------- *)

let summary t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "## Search report: %s [%s] (seed %d, budget %d)\n\n" t.label
       t.backend t.search_seed t.budget);
  Buffer.add_string buf
    (Printf.sprintf "%d plans evaluated (%d seeded), %d behavior signatures\n"
       t.runs t.seeded (frontier_size t));
  if t.space > 0 then
    Buffer.add_string buf
      (Printf.sprintf "box: %d plans; %s\n" t.space
         (if t.certified then "CERTIFIED clean (whole box enumerated)"
          else "box not exhausted within budget"));
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf
           "\nVIOLATION %s seed=%d (found with %d episode%s)\n  invariants: %s\n"
           f.scenario f.seed f.found_episodes
           (if f.found_episodes = 1 then "" else "s")
           (String.concat ", " f.invariants));
      String.split_on_char '\n' f.minimal_plan
      |> List.iter (fun line ->
             Buffer.add_string buf (Printf.sprintf "  | %s\n" line));
      if f.corpus_file <> "" then
        Buffer.add_string buf (Printf.sprintf "  corpus: %s\n" f.corpus_file))
    t.findings;
  Buffer.add_string buf
    (Printf.sprintf "\n%d violation%s, %d new corpus entr%s\n"
       (List.length t.findings)
       (if List.length t.findings = 1 then "" else "s")
       t.corpus_added
       (if t.corpus_added = 1 then "y" else "ies"));
  Buffer.contents buf
