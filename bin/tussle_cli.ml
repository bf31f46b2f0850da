(* The tussle command-line interface.

   Subcommands:
     experiments [-e ID]   regenerate the paper's experiments
     chaos                 seeded random fault plans vs. the invariants
     sweep                 statistical verdicts across seeds (t-tests + CIs)
     search                adversarial search over fault-plan space
     explain PLAN-FILE     replay a reproducer and narrate every drop
     trends REPORT         append to the benchmark history, diff vs baseline
     report FILE           validate and summarize a report or flow trace
     perfgate BASE REPORT  fail on wall/alloc regressions vs. a baseline
     scenario              run the actor/mechanism tussle engine
     market                run the access-provider market model
     policy FILE REQUEST   evaluate a policy compliance query *)

open Cmdliner
module Pool = Tussle_prelude.Pool
module Registry = Tussle_experiments.Registry
module Obs_report = Tussle_obs.Report
module Obs_sweep_report = Tussle_obs.Sweep_report
module Obs_search_report = Tussle_obs.Search_report
module Obs_json = Tussle_obs.Json
module Trends = Tussle_obs.Trends

let ( let* ) = Result.bind

(* The exit-2 convention: [checked] is a subcommand's one [let*] chain
   over its flags (and anything else it must reject before running);
   an [Error] prints "CMD: MSG" — "CMD: FLAG: MSG" for a flag value —
   and the subcommand exits 2. *)
let with_checked cmd checked run =
  match checked with
  | Ok v -> run v
  | Error msg ->
    prerr_endline (cmd ^ ": " ^ msg);
    2

(* Write the artifact a flag names; an unwritable path is the same
   "CMD: FLAG: MSG" and exit 2. *)
let write_artifact cmd flag write file artifact =
  try write file artifact
  with Sys_error msg ->
    prerr_endline (cmd ^ ": " ^ flag ^ ": " ^ msg);
    exit 2

(* Flags shared by several subcommands.  Values are taken as strings so
   garbage is rejected with exit 2 (like --domains 0) instead of
   cmdliner's generic CLI error; each term yields the validated value
   for the subcommand's [let*] chain. *)

(* --domains/--seq: set the process's domain budget (Pool). *)
let domain_budget =
  let domains =
    let doc =
      "Number of domains for the parallel fan-out (default: the recommended \
       domain count).  Output is byte-identical for any value."
    in
    Arg.(value & opt (some string) None & info [ "domains" ] ~doc ~docv:"N")
  in
  let seq =
    let doc = "Run strictly sequentially (same as --domains 1); pins \
               determinism for CI." in
    Arg.(value & flag & info [ "seq" ] ~doc)
  in
  let set seq domains =
    Result.map (Option.iter Pool.set_domains) (Pool.domains_flag ~seq domains)
  in
  Term.(const set $ seq $ domains)

let timeout_s =
  let doc =
    "Arm the per-run watchdog: an experiment, or a sweep's probe replicate, \
     still running after $(docv) seconds becomes a FAILED (timeout) outcome \
     while the rest carry on.  Off by default."
  in
  Term.(
    const (Pool.flag "--timeout-s" Pool.seconds_of_string)
    $ Arg.(value & opt (some string) None
           & info [ "timeout-s" ] ~doc ~docv:"SECONDS"))

(* ---------- experiments ---------- *)

let experiments_cmd =
  let id =
    let doc = "Run a single experiment (E1..E30)." in
    Arg.(value & opt (some string) None & info [ "e"; "experiment" ] ~doc)
  in
  let metrics =
    let doc = "Collect telemetry and print the metrics table after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let trace =
    let doc = "Record spans and write Chrome trace-event JSON to $(docv) \
               (open in chrome://tracing or Perfetto)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let report =
    let doc = "Write the machine-readable battery report JSON to $(docv) and \
               print its summary table." in
    Arg.(value & opt (some string) None & info [ "report" ] ~doc ~docv:"FILE")
  in
  let fault_seed =
    let doc =
      "Seed for the fault-injection substrate (experiments that inject \
       faults, e.g. E28, derive their plans from it).  Same seed, same \
       battery output, byte for byte; default 1031."
    in
    Arg.(value & opt (some string) None & info [ "fault-seed" ] ~doc ~docv:"SEED")
  in
  let run id domain_budget metrics trace report timeout_s fault_seed =
    with_checked "experiments"
      (let* () = domain_budget in
       let* timeout_s = timeout_s in
       let* fault_seed =
         Pool.flag "--fault-seed" (Pool.seed_of_string ~what:"fault seed")
           fault_seed
       in
       Ok (timeout_s, fault_seed))
    @@ fun (timeout_s, fault_seed) ->
    Option.iter Tussle_fault.Seed.set fault_seed;
    let emit_report, finish = Registry.telemetry ~metrics ~trace ~report () in
    match id with
    | None ->
      let ok, outcomes, wall_s = Registry.run_battery ?timeout_s () in
      emit_report ~wall_s outcomes;
      finish (if ok then 0 else 1)
    | Some id -> (
      match Registry.run_one ?timeout_s id with
      | Ok o ->
        emit_report ~wall_s:o.Tussle_experiments.Experiment.wall_s [ o ];
        finish (if Tussle_experiments.Experiment.held o then 0 else 1)
      | Error msg ->
        prerr_endline msg;
        2)
  in
  let doc = "regenerate the paper's experiments (E1..E30)" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(const run $ id $ domain_budget $ metrics $ trace $ report $ timeout_s
          $ fault_seed)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let seed =
    let doc =
      "Master seed for the chaos sweep.  Same seed, same plans, same \
       output, byte for byte, for any --domains count; default 1031."
    in
    Arg.(value & opt (some string) None & info [ "chaos-seed" ] ~doc ~docv:"SEED")
  in
  let runs =
    let doc = "Number of random fault plans to run (default 200)." in
    Arg.(value & opt (some string) None & info [ "chaos-runs" ] ~doc ~docv:"N")
  in
  let corpus =
    let doc =
      "Persist the shrunk reproducer of every invariant violation under \
       $(docv) (created if missing)."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~doc ~docv:"DIR")
  in
  let replay =
    let doc =
      "Instead of sweeping, replay every *.plan reproducer under $(docv) \
       and re-check all invariants."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~doc ~docv:"DIR")
  in
  let run seed runs domain_budget corpus replay =
    let module Sweep = Tussle_chaos.Sweep in
    let module Invariant = Tussle_chaos.Invariant in
    let module Corpus = Tussle_chaos.Corpus in
    with_checked "chaos"
      (let* seed =
         Pool.flag "--chaos-seed" (Pool.seed_of_string ~what:"chaos seed") seed
       in
       let* runs =
         Pool.flag "--chaos-runs" (Pool.int_at_least ~what:"run count" 1) runs
       in
       let* () = domain_budget in
       Ok
         ( Option.value seed ~default:Tussle_fault.Seed.default,
           Option.value runs ~default:200 ))
    @@ fun (seed, runs) ->
    match replay with
    | Some dir -> (
      let entries = Corpus.load_dir dir in
      Printf.printf "chaos replay: %d corpus entr%s under %s\n"
        (List.length entries)
        (if List.length entries = 1 then "y" else "ies")
        dir;
      let bad = ref 0 in
      List.iter
        (fun (path, entry) ->
          let name = Filename.basename path in
          (* an entry that does not load, names an unknown scenario or
             does not fit its scenario is a LOAD ERROR *)
          match
            Result.bind entry (fun e ->
                Result.map (fun vs -> (e, vs)) (Sweep.replay e))
          with
          | Error msg ->
            incr bad;
            Printf.printf "  %s: LOAD ERROR %s\n" name msg
          | Ok (e, []) ->
            Printf.printf "  %s: ok (%s, seed %d, %d episode%s)\n" name
              e.Corpus.scenario e.Corpus.seed (List.length e.Corpus.plan)
              (if List.length e.Corpus.plan = 1 then "" else "s")
          | Ok (_, violations) ->
            incr bad;
            Printf.printf "  %s: VIOLATION\n" name;
            List.iter
              (fun v -> Printf.printf "    %s\n" (Invariant.violation_string v))
              violations)
        entries;
      if !bad = 0 then begin
        Printf.printf "chaos replay: all clean\n";
        0
      end
      else begin
        Printf.printf "chaos replay: %d failing entr%s\n" !bad
          (if !bad = 1 then "y" else "ies");
        1
      end)
    | None ->
      let results = Sweep.run_sweep ~seed ~runs () in
      let failures = Sweep.failures results in
      Printf.printf
        "chaos sweep: %d runs from seed %d over %s; invariants: %s\n" runs
        seed
        (String.concat ", "
           (List.map
              (fun (s : Tussle_chaos.Scenario.t) -> s.Tussle_chaos.Scenario.name)
              Tussle_chaos.Scenario.all))
        (String.concat ", " Invariant.names);
      List.iter
        (fun (r : Sweep.run) ->
          Printf.printf "run %04d %s seed=%d episodes=%d: VIOLATION\n"
            r.Sweep.index r.Sweep.scenario r.Sweep.seed r.Sweep.episodes;
          List.iter
            (fun v -> Printf.printf "  %s\n" (Invariant.violation_string v))
            r.Sweep.violations;
          let minimal = Sweep.shrink_run r in
          Printf.printf "  shrunk %d -> %d episode%s:\n"
            (List.length r.Sweep.plan) (List.length minimal)
            (if List.length minimal = 1 then "" else "s");
          String.split_on_char '\n' (Tussle_fault.Plan.to_string minimal)
          |> List.iter (fun line ->
                 if line <> "" then Printf.printf "    %s\n" line);
          let entry =
            {
              Corpus.scenario = r.Sweep.scenario;
              seed = r.Sweep.seed;
              plan = minimal;
            }
          in
          (* replay the shrunk reproducer with the flight recorder on
             and attach the offending flows' causal records to each
             violation *)
          let attachment =
            match Tussle_chaos.Explain.run entry with
            | Error msg -> Printf.sprintf "  explain: %s\n" msg
            | Ok er ->
              String.concat ""
                (List.map
                   (fun v ->
                     Tussle_chaos.Explain.narrative_of_violation ~entry
                       ~events:er.Tussle_chaos.Explain.events v)
                   (if er.Tussle_chaos.Explain.violations = [] then
                      r.Sweep.violations
                    else er.Tussle_chaos.Explain.violations))
          in
          String.split_on_char '\n' attachment
          |> List.iter (fun line ->
                 if line <> "" then Printf.printf "  %s\n" line);
          match corpus with
          | None -> ()
          | Some dir ->
            let path = Corpus.save ~dir entry in
            Printf.printf "  saved %s\n" path;
            let explain_path =
              Filename.remove_extension path ^ ".explain.txt"
            in
            let oc = open_out explain_path in
            output_string oc attachment;
            close_out oc;
            Printf.printf "  saved %s\n" explain_path)
        failures;
      let n_fail = List.length failures in
      Printf.printf "chaos sweep: %d/%d runs clean, %d violation%s\n"
        (runs - n_fail) runs n_fail
        (if n_fail = 1 then "" else "s");
      if n_fail = 0 then 0 else 1
  in
  let doc =
    "run seeded random fault plans against the scenario checkers and \
     validate every simulation invariant (see also --replay)"
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ seed $ runs $ domain_budget $ corpus $ replay)

(* ---------- explain ---------- *)

let explain_cmd =
  (* Plain string positional for the clean-error/exit-2 convention. *)
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PLAN-FILE"
             ~doc:"Corpus reproducer (scenario/seed header + fault plan) \
                   to replay with the flight recorder on.")
  in
  let json_out =
    let doc = "Also write the tussle.flow-trace/1 JSON artifact to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  (* --domains/--seq are accepted for symmetry and validated; the replay
     is a single-threaded simulation. *)
  let run file json_out domain_budget =
    let module Explain = Tussle_chaos.Explain in
    with_checked "explain"
      (let* () = domain_budget in
       let* entry = Tussle_chaos.Corpus.load file in
       Explain.run entry)
    @@ fun r ->
    print_string r.Explain.narrative;
    (match json_out with
    | None -> ()
    | Some out ->
      write_artifact "explain" "--json" Obs_json.to_file out (Explain.to_json r);
      Printf.printf "flow trace written to %s (%d events)\n" out
        (List.length r.Explain.events));
    if r.Explain.violations = [] then 0 else 1
  in
  let doc =
    "replay a chaos corpus reproducer with the flow-level flight recorder \
     on and print a causal narrative: every drop attributed to the fault \
     episode that explains it, plus the control-plane timeline"
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ file $ json_out $ domain_budget)

(* ---------- trends ---------- *)

let trends_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"REPORT"
             ~doc:"Fresh battery report JSON to append to the history.")
  in
  let history =
    let doc = "Benchmark history file, one JSON line per appended report." in
    Arg.(value & opt string "BENCH_history.jsonl"
         & info [ "history" ] ~doc ~docv:"FILE")
  in
  let baseline =
    let doc = "Battery report to diff the fresh report against (wall clock \
               and GC allocation per experiment)." in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~doc ~docv:"FILE")
  in
  let run file history baseline =
    with_checked "trends"
      (let* json, exps = Trends.load file in
       let* () =
         Result.map_error (( ^ ) "--history: ")
           (Trends.append ~history (Trends.history_line json exps))
       in
       let* entries = Trends.check_history history in
       Ok (exps, entries))
    @@ fun (exps, entries) ->
    Printf.printf "trends: appended %s to %s (%d entr%s)\n" file history entries
      (if entries = 1 then "y" else "ies");
    with_checked "trends" (Pool.flag "--baseline" Trends.load baseline)
    @@ function
    | None -> 0
    | Some (_, base) ->
      print_string (Trends.deltas ~base exps);
      0
  in
  let doc =
    "append a battery report to the benchmark history (JSONL, validated \
     round-trip) and print per-experiment wall/alloc deltas against a \
     baseline report"
  in
  Cmd.v (Cmd.info "trends" ~doc) Term.(const run $ file $ history $ baseline)

(* ---------- report ---------- *)

let report_cmd =
  (* The positional is a plain string, not [Arg.file]: a missing path
     must produce our clean one-line error and exit 2 (the --domains
     garbage-input convention), not cmdliner's generic CLI error. *)
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"REPORT-FILE"
             ~doc:"Battery, sweep or search report, or flow trace, JSON to \
                   check.")
  in
  (* One row per artifact schema: what to call it, its validator, and
     the fields of its summary line (name, path from the root). *)
  let top k = (k, [ k ]) and summary k = (k, [ "summary"; k ]) in
  let battery =
    ( Obs_report.schema_tag,
      "battery report",
      Obs_report.validate,
      [ top "label"; ("experiments", [ "summary"; "total" ]); summary "held";
        summary "violated"; summary "failed" ] )
  in
  let kinds =
    [
      ( Obs_search_report.schema_tag,
        "search report",
        Obs_search_report.validate,
        [ top "label"; top "backend"; summary "runs"; summary "frontier";
          summary "violations"; summary "corpus_added" ] );
      ( Obs_sweep_report.schema_tag,
        "sweep report",
        Obs_sweep_report.validate,
        [ top "label"; summary "experiments"; summary "verdicts";
          summary "passed" ] );
      ( Tussle_chaos.Explain.schema,
        "flow trace",
        Tussle_chaos.Explain.validate_json,
        [ top "scenario"; top "seed"; top "clean"; top "events_recorded" ] );
      battery;
    ]
  in
  let show json (name, path) =
    let v =
      List.fold_left (fun j k -> Option.bind j (Obs_json.member k)) (Some json)
        path
    in
    name ^ "="
    ^
    match v with
    | Some (Obs_json.Str s) -> s
    | Some j -> Obs_json.to_string j
    | None -> "?"
  in
  let run file =
    (* the read error and the parse error keep their own prefixes *)
    with_checked "report" (Obs_json.read_file file) @@ fun contents ->
    match Obs_json.parse contents with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      2
    | Ok json -> (
      let tag = Option.bind (Obs_json.member "schema" json) Obs_json.to_str in
      let tag, name, validate, fields =
        Option.value ~default:battery
          (List.find_opt (fun (t, _, _, _) -> Some t = tag) kinds)
      in
      match validate json with
      | Error msg ->
        Printf.eprintf "%s: invalid %s: %s\n" file name msg;
        2
      | Ok () ->
        Printf.printf "%s: valid %s\n%s\n" file tag
          (String.concat " " (List.map (show json) fields));
        0)
  in
  let doc =
    "validate and summarize a battery, sweep or search report or a flow \
     trace JSON file"
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ file)

(* ---------- sweep ---------- *)

let sweep_cmd =
  let ids =
    let doc =
      "Comma-separated experiment ids to sweep (default: every experiment \
       exposing a sweep surface, currently E1, E29 and E30)."
    in
    Arg.(value & opt (some string) None & info [ "e"; "experiments" ] ~doc ~docv:"IDS")
  in
  (* All numeric flags taken as strings so garbage is rejected with our
     clean one-line error and exit 2 — the --domains convention. *)
  let sweep_seed =
    let doc =
      "Master seed for the sweep.  Every run's seed derives from (seed, run \
       index) alone, so the summary and the report are byte-identical across \
       repeats and across any --domains count; default 1031."
    in
    Arg.(value & opt (some string) None & info [ "sweep-seed" ] ~doc ~docv:"SEED")
  in
  let sweep_runs =
    let doc = "Number of seeded replicates per experiment (>= 2; default 100)." in
    Arg.(value & opt (some string) None & info [ "sweep-runs" ] ~doc ~docv:"N")
  in
  let alpha =
    let doc =
      "Significance level: a verdict passes when its p-value is below \
       $(docv) (in (0, 1); default 0.01)."
    in
    Arg.(value & opt (some string) None & info [ "alpha" ] ~doc ~docv:"ALPHA")
  in
  let report =
    let doc = "Write the tussle.sweep-report/1 JSON artifact to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~doc ~docv:"FILE")
  in
  let run ids sweep_seed sweep_runs alpha domain_budget timeout_s report =
    let sweepable id =
      match Registry.find id with
      | None -> Error (Printf.sprintf "unknown experiment %S" id)
      | Some e when e.Tussle_experiments.Experiment.sweep = None ->
        Error
          (Printf.sprintf
             "experiment %s has no sweep surface (no per-run metrics to test)"
             e.Tussle_experiments.Experiment.id)
      | Some e -> Ok e
    in
    with_checked "sweep"
      (let* seed =
         Pool.flag "--sweep-seed" (Pool.seed_of_string ~what:"seed") sweep_seed
       in
       let* runs =
         Pool.flag "--sweep-runs" (Pool.int_at_least ~what:"run count" 2)
           sweep_runs
       in
       let* alpha = Pool.flag "--alpha" Pool.probability_of_string alpha in
       let* () = domain_budget in
       let* timeout_s = timeout_s in
       let* experiments =
         Pool.flag "--experiments"
           (fun s ->
             String.split_on_char ',' s |> List.map String.trim
             |> Obs_json.list sweepable)
           ids
       in
       Ok
         ( Option.value seed ~default:1031,
           Option.value runs ~default:100,
           Option.value alpha ~default:0.01,
           timeout_s,
           Option.value experiments ~default:(Registry.sweepables ()) ))
    @@ fun (seed, runs, alpha, timeout_s, experiments) ->
    let sweep_report, errors =
      Tussle_sweep.Driver.run_sweep ?timeout_s ~seed ~runs ~alpha experiments
    in
    print_string (Obs_sweep_report.summary sweep_report);
    List.iter
      (fun e -> prerr_endline ("sweep: " ^ Tussle_sweep.Driver.error_string e))
      errors;
    let violations = Tussle_sweep.Driver.check_report sweep_report in
    List.iter
      (fun v ->
        prerr_endline
          ("sweep: report invariant violated: "
          ^ Tussle_chaos.Invariant.violation_string v))
      violations;
    Option.iter
      (fun file ->
        write_artifact "sweep" "--report" Obs_sweep_report.write file sweep_report;
        Printf.printf "\nreport written to %s\n" file)
      report;
    let total, passed = Obs_sweep_report.count_verdicts sweep_report in
    if errors <> [] || violations <> [] || passed < total then 1 else 0
  in
  let doc =
    "statistical verdicts: sweep experiments across seeds and hypothesis-test \
     the claims"
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ ids $ sweep_seed $ sweep_runs $ alpha $ domain_budget
          $ timeout_s $ report)

(* ---------- search ---------- *)

let search_cmd =
  let backend =
    let doc =
      "Search backend: $(b,mutate) (coverage-guided mutation seeded from the \
       corpus) or $(b,exhaust) (bounded-exhaustive enumeration of a small \
       quantized plan grammar, certifying the box when it completes clean)."
    in
    Arg.(value & opt string "mutate" & info [ "backend" ] ~doc ~docv:"NAME")
  in
  (* Numeric flags taken as strings so garbage is rejected with our
     clean one-line error and exit 2 — the --domains convention. *)
  let budget =
    let doc = "Total number of fault plans to evaluate (default 200)." in
    Arg.(value & opt (some string) None & info [ "budget" ] ~doc ~docv:"N")
  in
  let sweep_seed =
    let doc =
      "Master seed for the search.  Every candidate derives from (seed, \
       candidate index) alone, so the summary and the report are \
       byte-identical across repeats and across any --domains count; \
       default 1031."
    in
    Arg.(value & opt (some string) None & info [ "sweep-seed" ] ~doc ~docv:"SEED")
  in
  let corpus =
    let doc =
      "Corpus directory: seeds the mutate backend and receives every new \
       1-minimal reproducer (default chaos/corpus; pass an empty string to \
       disable seeding and persistence)."
    in
    Arg.(value & opt string "chaos/corpus" & info [ "corpus" ] ~doc ~docv:"DIR")
  in
  let report =
    let doc = "Write the tussle.search-report/1 JSON artifact to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~doc ~docv:"FILE")
  in
  let run backend budget sweep_seed domain_budget corpus report =
    let module Driver = Tussle_search.Driver in
    with_checked "search"
      (let* backend =
         Result.map_error (( ^ ) "--backend: ")
           (Pool.backend_of_string Driver.backend_names backend)
       in
       let* budget =
         Pool.flag "--budget" (Pool.int_at_least ~what:"budget" 1) budget
       in
       let* seed =
         Pool.flag "--sweep-seed" (Pool.seed_of_string ~what:"seed") sweep_seed
       in
       let* () = domain_budget in
       let corpus_dir = if String.trim corpus = "" then None else Some corpus in
       Result.map_error (( ^ ) "--backend: ")
         (Driver.run ?corpus_dir ~backend
            ~seed:(Option.value seed ~default:1031)
            ~budget:(Option.value budget ~default:200)
            ()))
    @@ fun (search_report, _outcome) ->
    print_string (Obs_search_report.summary search_report);
    let violations = Tussle_chaos.Invariant.check_search_report search_report in
    List.iter
      (fun v ->
        prerr_endline
          ("search: report invariant violated: "
          ^ Tussle_chaos.Invariant.violation_string v))
      violations;
    Option.iter
      (fun file ->
        write_artifact "search" "--report" Obs_search_report.write file search_report;
        Printf.printf "\nreport written to %s\n" file)
      report;
    if violations <> [] || search_report.Obs_search_report.findings <> [] then 1
    else 0
  in
  let doc =
    "adversarial search over fault-plan space: coverage-guided mutation or \
     bounded-exhaustive enumeration against the invariant registry"
  in
  Cmd.v (Cmd.info "search" ~doc)
    Term.(const run $ backend $ budget $ sweep_seed $ domain_budget $ corpus
          $ report)

(* ---------- perfgate ---------- *)

let perfgate_cmd =
  (* Plain strings for the same clean-error/exit-2 convention as
     [report]: missing files and malformed flags are our diagnostics,
     not cmdliner's. *)
  let baseline =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"BASELINE" ~doc:"Committed battery report to gate against.")
  in
  let candidate =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"REPORT" ~doc:"Fresh battery report to check.")
  in
  let ids =
    let doc = "Comma-separated experiment ids to gate (default E1,E3: the \
               market hot path)." in
    Arg.(value & opt string "E1,E3" & info [ "ids" ] ~doc ~docv:"IDS")
  in
  let tolerance =
    let doc = "Allowed fractional regression per metric (default 0.25: fail \
               when a metric exceeds baseline by more than 25%)." in
    Arg.(value & opt (some string) None & info [ "tolerance" ] ~doc ~docv:"FRAC")
  in
  let run baseline candidate ids tolerance =
    let tolerance_of_string s =
      match float_of_string_opt (String.trim s) with
      | Some t when t >= 0.0 && Float.is_finite t -> Ok t
      | Some _ | None ->
        Error
          (Printf.sprintf
             "invalid tolerance %S (expected a non-negative number)" s)
    in
    with_checked "perfgate"
      (let* tolerance = Pool.flag "--tolerance" tolerance_of_string tolerance in
       let* _, base = Trends.load baseline in
       let* _, cand = Trends.load candidate in
       match
         String.split_on_char ',' ids |> List.map String.trim
         |> List.filter (fun s -> s <> "")
       with
       | [] -> Error "--ids: no experiment ids given"
       | ids -> Ok (Option.value tolerance ~default:0.25, base, cand, ids))
    @@ fun (tolerance, base, cand, ids) ->
    Printf.printf "perfgate: %s vs %s, tolerance %.0f%%\n" candidate baseline
      (100.0 *. tolerance);
    let lines, verdict = Trends.gate ~tolerance ~ids ~base cand in
    print_string lines;
    match verdict with
    | Trends.Missing ->
      prerr_endline "perfgate: experiment missing from a report";
      2
    | Trends.Regression ->
      print_endline "perfgate: FAIL (performance regression)";
      1
    | Trends.Pass ->
      print_endline "perfgate: ok";
      0
  in
  let doc =
    "gate a fresh battery report against a committed baseline: fail when a \
     tracked experiment's wall clock or GC allocation regresses beyond the \
     tolerance"
  in
  Cmd.v (Cmd.info "perfgate" ~doc)
    Term.(const run $ baseline $ candidate $ ids $ tolerance)

(* ---------- scenario ---------- *)

let scenario_cmd =
  let rounds =
    let doc = "Maximum number of rounds." in
    Arg.(value & opt int 30 & info [ "rounds" ] ~doc)
  in
  let kinds =
    let doc =
      "Actors to include (comma-separated): user, isp, government, \
       rights-holder, content-provider, private-network, designer."
    in
    Arg.(value & opt string "isp,user,government" & info [ "actors" ] ~doc)
  in
  let run rounds kinds =
    let parse_kind = function
      | "user" -> Some Tussle_core.Actor.User
      | "isp" -> Some Tussle_core.Actor.Isp
      | "government" -> Some Tussle_core.Actor.Government
      | "rights-holder" -> Some Tussle_core.Actor.Rights_holder
      | "content-provider" -> Some Tussle_core.Actor.Content_provider
      | "private-network" -> Some Tussle_core.Actor.Private_network
      | "designer" -> Some Tussle_core.Actor.Designer
      | _ -> None
    in
    let names = String.split_on_char ',' kinds in
    let actors =
      List.filter_map
        (fun name -> parse_kind (String.trim name))
        names
      |> List.mapi (fun i k ->
             Tussle_core.Actor.make ~id:i
               ~name:(Tussle_core.Actor.kind_to_string k) k)
    in
    if actors = [] then begin
      prerr_endline "no recognizable actors";
      2
    end
    else begin
      let result =
        Tussle_core.Scenario.run ~max_rounds:rounds ~actors
          ~available:Tussle_core.Mechanism.available_to ()
      in
      List.iter
        (fun r ->
          let moves =
            List.filter_map
              (fun (id, m) ->
                match m with
                | Tussle_core.Scenario.Pass -> None
                | m ->
                  Some
                    (Printf.sprintf "%d:%s" id
                       (Tussle_core.Scenario.move_to_string m)))
              r.Tussle_core.Scenario.moves
          in
          if moves <> [] then
            Printf.printf "round %2d | %s\n" r.Tussle_core.Scenario.index
              (String.concat "; " moves))
        result.Tussle_core.Scenario.rounds;
      Printf.printf "ending: %s\n"
        (Tussle_core.Scenario.ending_to_string result.Tussle_core.Scenario.ending);
      Format.printf "outcome: %a@." Tussle_core.Interest.pp
        result.Tussle_core.Scenario.final_outcome;
      0
    end
  in
  let doc = "run the actor/mechanism tussle engine" in
  Cmd.v (Cmd.info "scenario" ~doc) Term.(const run $ rounds $ kinds)

(* ---------- market ---------- *)

let market_cmd =
  let module Market = Tussle_econ.Market in
  (* Taken as strings so bad values exit 2, like every other flag. *)
  let providers =
    Arg.(value & opt (some string) None
         & info [ "providers" ] ~docv:"N" ~doc:"Number of providers (default 4).")
  in
  let switching =
    Arg.(value & opt (some string) None
         & info [ "switching-cost" ] ~docv:"COST"
             ~doc:"Lock-in cost, a finite number >= 0 (default 0).")
  in
  let seed =
    Arg.(value & opt (some string) None
         & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed (default 42).")
  in
  let run providers switching seed =
    with_checked "market"
      (let* providers =
         Pool.flag "--providers" (Pool.int_at_least ~what:"provider count" 1)
           providers
       in
       let* switching =
         Pool.flag "--switching-cost"
           (Pool.non_negative_of_string ~what:"switching cost") switching
       in
       let* seed = Pool.flag "--seed" (Pool.seed_of_string ~what:"seed") seed in
       Ok
         ( Option.value providers ~default:4,
           Option.value switching ~default:0.0,
           Option.value seed ~default:42 ))
    @@ fun (providers, switching, seed) ->
    let cfg =
      {
        Market.default_config with
        Market.n_providers = providers;
        switching_cost = switching;
      }
    in
    let r = Market.run (Tussle_prelude.Rng.create seed) cfg in
    Printf.printf "price      %.3f (salop benchmark %.3f)\n" r.Market.mean_price
      (Market.salop_price cfg);
    Printf.printf "markup     %.3f\n" r.Market.mean_markup;
    Printf.printf "churn      %.1f%%\n" (100.0 *. r.Market.churn_rate);
    Printf.printf "surplus    %.1f\n" r.Market.consumer_surplus;
    Printf.printf "profit     %.1f\n" r.Market.provider_profit;
    Printf.printf "HHI        %.3f\n" r.Market.hhi;
    0
  in
  let doc = "run the access-provider market model" in
  Cmd.v (Cmd.info "market" ~doc) Term.(const run $ providers $ switching $ seed)

(* ---------- policy ---------- *)

let policy_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"POLICY-FILE" ~doc:"Policy file to load.")
  in
  let request =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"SUBJECT:ACTION:RESOURCE"
             ~doc:"Request as subject:action:resource.")
  in
  let root =
    Arg.(value & opt string "root" & info [ "root" ] ~doc:"Trust root.")
  in
  let attr =
    Arg.(value & opt_all string []
         & info [ "a"; "attr" ] ~doc:"Attribute binding name=value (int or string).")
  in
  let run file request root attrs =
    with_checked "policy" (Obs_json.read_file file) @@ fun text ->
    try
      let policy = Tussle_policy.Parser.parse text in
      match String.split_on_char ':' request with
      | [ subject; action; resource ] ->
        let attributes =
          List.filter_map
            (fun binding ->
              match String.index_opt binding '=' with
              | None -> None
              | Some i ->
                let name = String.sub binding 0 i in
                let v =
                  String.sub binding (i + 1) (String.length binding - i - 1)
                in
                let value =
                  match int_of_string_opt v with
                  | Some n -> Tussle_policy.Ast.Int n
                  | None -> Tussle_policy.Ast.Str v
                in
                Some (name, value))
            attrs
        in
        let req =
          { Tussle_policy.Eval.subject; action; resource; attributes }
        in
        let d = Tussle_policy.Eval.decide ~root policy req in
        print_endline (Tussle_policy.Eval.decision_to_string d);
        (match d with Tussle_policy.Eval.Allowed -> 0 | _ -> 1)
      | _ ->
        prerr_endline "request must be subject:action:resource";
        2
    with
    | Tussle_policy.Parser.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      2
    | Tussle_policy.Lexer.Lex_error (msg, pos) ->
      Printf.eprintf "lex error at %d: %s\n" pos msg;
      2
  in
  let doc = "evaluate a policy compliance query" in
  Cmd.v (Cmd.info "policy" ~doc) Term.(const run $ file $ request $ root $ attr)

let () =
  Printexc.record_backtrace true;
  let doc = "the Tussle-in-Cyberspace simulation framework" in
  let info = Cmd.info "tussle" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ experiments_cmd; chaos_cmd; sweep_cmd; search_cmd; explain_cmd;
        trends_cmd; report_cmd; perfgate_cmd; scenario_cmd; market_cmd;
        policy_cmd ]
  in
  exit (Cmd.eval' group)
