(* The tussle command-line interface: experiments, chaos, sweep, search,
   explain, report, scenario, market and policy (see [tussle --help]).
   Each subcommand is its flag terms, one library call and a
   renderer. *)

open Cmdliner
module Pool = Tussle_prelude.Pool
module Registry = Tussle_experiments.Registry
module Obs_sweep_report = Tussle_obs.Sweep_report
module Obs_search_report = Tussle_obs.Search_report
module Obs_json = Tussle_obs.Json
module Sweep = Tussle_chaos.Sweep

let ( let* ) = Result.bind

(* A subcommand's term yields [Ok code], or [Error msg] for anything it
   rejects before running — "--FLAG: MSG" for a flag value — which
   prints as "CMD: MSG" and exits 2.  Its body is applied to its flags
   with [ok body $? checked $! plain]: a checked flag's [Error] wins
   over everything to its right. *)
let ok body = Term.const (Ok body)

let ( $? ) f x =
  Term.(const (fun f x -> Result.bind f (fun f -> Result.map f x)) $ f $ x)

let ( $! ) f x = Term.(const (fun f x -> Result.map (fun f -> f x) f) $ f $ x)

let subcommand name ~doc term =
  let exit_code r =
    match Result.join r with
    | Ok code -> code
    | Error msg ->
      prerr_endline (name ^ ": " ^ msg);
      2
  in
  Cmd.v (Cmd.info name ~doc) Term.(const exit_code $ term)

(* A flag whose value is taken as a string and checked by [parse], so
   garbage is "CMD: --NAME: MSG" and exit 2 (like --domains 0), not
   cmdliner's usage error.  The name is spelled once, in [names]; the
   error names the last (long) one. *)
let opt_checked ?absent ?docv names ~doc parse =
  let flag = "--" ^ List.nth names (List.length names - 1) in
  Term.(
    const (Pool.flag flag parse)
    $ Arg.(value & opt (some string) None & info names ?absent ?docv ~doc))

let checked ?absent ?docv names ~doc ~default parse =
  Term.(
    const (Result.map (Option.value ~default))
    $ opt_checked ?absent ?docv names ~doc parse)

(* A flag naming a file (or directory) to write. *)
type file = { flag : string; path : string }

let file_flag ?default ?(docv = "FILE") long ~doc =
  let flag = "--" ^ long in
  Term.(
    const (Option.map (fun path -> { flag; path }))
    $ Arg.(value & opt (some string) default & info [ long ] ~doc ~docv))

(* Flags several subcommands declare, each with its own doc. *)
let report_flag = file_flag "report"
let corpus_flag default = file_flag ?default "corpus" ~docv:"DIR"

let sweep_seed =
  checked [ "sweep-seed" ] ~docv:"SEED" ~default:1031
    (Pool.seed_of_string ~what:"seed")

(* [write cmd file f]: [f] with the path, if the flag was given; an
   unwritable path is "CMD: --NAME: MSG" and exit 2 (Pool.artifact). *)
let write cmd file f =
  match file with
  | None -> f None
  | Some { flag; path } -> Pool.artifact ~cmd ~flag (fun () -> f (Some path))

(* The sweep/search epilogue: the summary, each problem as "CMD: MSG"
   on stderr, the artifact's check (the one [tussle report] runs), then
   the --report artifact.  [true] when the artifact is valid. *)
let publish cmd report json ~summary ~problems =
  print_string summary;
  List.iter (fun msg -> prerr_endline (cmd ^ ": " ^ msg)) problems;
  let valid =
    match Tussle_chaos.Artifact.check json with
    | Ok _ -> true
    | Error (kind, msg) ->
      prerr_endline (Printf.sprintf "%s: invalid %s: %s" cmd kind msg);
      false
  in
  write cmd report
    (Option.iter (fun file ->
         Obs_json.to_file file json;
         Printf.printf "\nreport written to %s\n" file));
  valid

let pos_file i docv ~doc =
  Arg.(required & pos i (some string) None & info [] ~docv ~doc)

(* Split a comma-separated list, trimming each item. *)
let ids s = String.split_on_char ',' s |> List.map String.trim

(* --domains/--seq: set the process's domain budget (Pool). *)
let domain_budget =
  let domains =
    Arg.(value & opt (some string) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Number of domains for the parallel fan-out (default: the \
                   recommended domain count).  Output is byte-identical for \
                   any value.")
  in
  let seq =
    Arg.(value & flag
         & info [ "seq" ]
             ~doc:"Run strictly sequentially (same as --domains 1); pins \
                   determinism for CI.")
  in
  let set seq domains =
    Result.map (Option.iter Pool.set_domains) (Pool.domains_flag ~seq domains)
  in
  Term.(const set $ seq $ domains)

let timeout_s =
  opt_checked [ "timeout-s" ] ~docv:"SECONDS" Pool.seconds_of_string
    ~doc:
      "Arm the per-run watchdog: an experiment, or a sweep's probe replicate, \
       still running after $(docv) seconds becomes a FAILED (timeout) outcome \
       while the rest carry on.  Off by default."

let experiments_cmd =
  let id =
    Arg.(value & opt (some string) None
         & info [ "e"; "experiment" ] ~doc:"Run a single experiment (E1..E30).")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Collect telemetry and print the metrics table after the run.")
  in
  let trace =
    file_flag "trace"
      ~doc:"Record spans and write Chrome trace-event JSON to $(docv) (open in \
            chrome://tracing or Perfetto)."
  in
  let report =
    report_flag
      ~doc:"Write the machine-readable battery report JSON to $(docv) and \
            print its summary table."
  in
  let fault_seed =
    opt_checked [ "fault-seed" ] ~docv:"SEED"
      (Pool.seed_of_string ~what:"fault seed")
      ~doc:
        "Seed for the fault-injection substrate (experiments that inject \
         faults, e.g. E28, derive their plans from it).  Same seed, same \
         battery output, byte for byte; default 1031."
  in
  let run () timeout_s fault_seed id metrics trace report =
    Option.iter Tussle_fault.Seed.set fault_seed;
    let path = Option.map (fun f -> f.path) in
    (* an unknown id is printed as it is, with no "experiments: " *)
    Registry.run ~metrics ~trace:(path trace) ~report:(path report) ?timeout_s id
    |> Result.fold ~ok:Result.ok ~error:(fun msg ->
           prerr_endline msg;
           Ok 2)
  in
  subcommand "experiments" ~doc:"regenerate the paper's experiments (E1..E30)"
    (ok run $? domain_budget $? timeout_s $? fault_seed $! id $! metrics
   $! trace $! report)

let chaos_cmd =
  let seed =
    checked [ "chaos-seed" ] ~docv:"SEED" ~default:Tussle_fault.Seed.default
      (Pool.seed_of_string ~what:"chaos seed")
      ~doc:
        "Master seed for the chaos sweep.  Same seed, same plans, same \
         output, byte for byte, for any --domains count; default 1031."
  in
  let runs =
    checked [ "chaos-runs" ] ~docv:"N" ~default:200
      (Pool.int_at_least ~what:"run count" 1)
      ~doc:"Number of random fault plans to run (default 200)."
  in
  let corpus =
    corpus_flag None
      ~doc:"Persist the shrunk reproducer of every invariant violation under \
            $(docv) (created if missing)."
  in
  let replay =
    let doc =
      "Instead of sweeping, replay every *.plan reproducer under $(docv) \
       and re-check all invariants."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~doc ~docv:"DIR")
  in
  let run seed runs () corpus replay =
    match replay with
    | Some dir -> (
      match Sweep.replay_dir dir with
      | Error msg -> Error ("--replay: " ^ msg)
      | Ok r ->
        print_string (Sweep.render_replay r);
        Ok (if Sweep.failing r = 0 then 0 else 1))
    | None ->
      let s =
        write "chaos" corpus (fun corpus_dir ->
            Sweep.sweep ?corpus_dir ~seed ~runs ())
      in
      print_string (Sweep.render_sweep s);
      Ok (if s.Sweep.found = [] then 0 else 1)
  in
  subcommand "chaos"
    ~doc:"run seeded random fault plans against the scenario checkers and \
          validate every simulation invariant (see also --replay)"
    (ok run $? seed $? runs $? domain_budget $! corpus $! replay)

let explain_cmd =
  let module Explain = Tussle_chaos.Explain in
  let file =
    pos_file 0 "PLAN-FILE"
      ~doc:"Corpus reproducer (scenario/seed header + fault plan) to replay \
            with the flight recorder on."
  in
  let json =
    file_flag "json"
      ~doc:"Also write the tussle.flow-trace/2 JSON artifact to $(docv)."
  in
  (* --domains/--seq are accepted for symmetry and validated; the replay
     is a single-threaded simulation. *)
  let run () file json =
    let* entry = Tussle_chaos.Corpus.load file in
    let* r = Explain.run entry in
    print_string r.Explain.narrative;
    write "explain" json
      (Option.iter (fun out ->
           Obs_json.to_file out (Explain.to_json r);
           Printf.printf "flow trace written to %s (%d events)\n" out
             (List.length r.Explain.events)));
    Ok (if r.Explain.violations = [] then 0 else 1)
  in
  subcommand "explain"
    ~doc:"replay a chaos corpus reproducer with the flow-level flight recorder \
          on and print a causal narrative: every drop attributed to the fault \
          episode that explains it, plus the control-plane timeline"
    (ok run $? domain_budget $! file $! json)

let report_cmd =
  (* The positional is a plain string, not [Arg.file]: a missing path
     must produce our clean one-line error and exit 2, not cmdliner's. *)
  let file =
    pos_file 0 "REPORT-FILE"
      ~doc:"Battery, sweep or search report, or flow trace, JSON to check."
  in
  (* the read error and the parse error keep their own prefixes *)
  let run file =
    let* contents = Obs_json.read_file file in
    match Result.map Tussle_chaos.Artifact.check (Obs_json.parse contents) with
    | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      Ok 2
    | Ok (Error (kind, msg)) ->
      Printf.eprintf "%s: invalid %s: %s\n" file kind msg;
      Ok 2
    | Ok (Ok (tag, summary)) ->
      Printf.printf "%s: valid %s\n%s\n" file tag summary;
      Ok 0
  in
  subcommand "report"
    ~doc:"validate and summarize a battery, sweep or search report or a flow \
          trace JSON file"
    (ok run $! file)

let sweep_cmd =
  let experiments =
    checked [ "e"; "experiments" ] ~docv:"IDS" ~default:(Registry.sweepables ())
      (fun s -> Obs_json.list Registry.sweepable (ids s))
      ~doc:
        "Comma-separated experiment ids to sweep (default: every experiment \
         exposing a sweep surface, currently E1, E29 and E30)."
  in
  let seed =
    sweep_seed
      ~doc:
        "Master seed for the sweep.  Every run's seed derives from (seed, run \
         index) alone, so the summary and the report are byte-identical across \
         repeats and across any --domains count; default 1031."
  in
  let runs =
    checked [ "sweep-runs" ] ~docv:"N" ~default:100
      (Pool.int_at_least ~what:"run count" 2)
      ~doc:"Number of seeded replicates per experiment (>= 2; default 100)."
  in
  let alpha =
    checked [ "alpha" ] ~docv:"ALPHA" ~default:0.01 Pool.probability_of_string
      ~doc:
        "Significance level: a verdict passes when its p-value is below \
         $(docv) (in (0, 1); default 0.01)."
  in
  let report =
    report_flag ~doc:"Write the tussle.sweep-report/1 JSON artifact to $(docv)."
  in
  let run seed runs alpha () timeout_s experiments report =
    let module Driver = Tussle_sweep.Driver in
    let sweep_report, errors =
      Driver.run_sweep ?timeout_s ~seed ~runs ~alpha experiments
    in
    let valid =
      publish "sweep" report (Obs_sweep_report.to_json sweep_report)
        ~summary:(Obs_sweep_report.summary sweep_report)
        ~problems:(List.map Driver.error_string errors)
    in
    let total, passed = Obs_sweep_report.count_verdicts sweep_report in
    Ok (if errors <> [] || (not valid) || passed < total then 1 else 0)
  in
  subcommand "sweep"
    ~doc:"statistical verdicts: sweep experiments across seeds and \
          hypothesis-test the claims"
    (ok run $? seed $? runs $? alpha $? domain_budget $? timeout_s
   $? experiments $! report)

let search_cmd =
  let module Search = Tussle_chaos.Search in
  let backend =
    checked [ "backend" ] ~absent:"mutate" ~docv:"NAME" ~default:Search.Mutate
      Search.backend_of_string
      ~doc:
        "Search backend: $(b,mutate) (coverage-guided mutation seeded from the \
         corpus) or $(b,exhaust) (bounded-exhaustive enumeration of a small \
         quantized plan grammar, certifying the box when it completes clean)."
  in
  let budget =
    checked [ "budget" ] ~docv:"N" ~default:200
      (Pool.int_at_least ~what:"budget" 1)
      ~doc:"Total number of fault plans to evaluate (default 200)."
  in
  let seed =
    sweep_seed
      ~doc:
        "Master seed for the search.  Every candidate derives from (seed, \
         candidate index) alone, so the summary and the report are \
         byte-identical across repeats and across any --domains count; \
         default 1031."
  in
  let corpus =
    corpus_flag (Some "chaos/corpus")
      ~doc:
        "Corpus directory: seeds the mutate backend and receives every new \
         1-minimal reproducer (default chaos/corpus; pass an empty string to \
         disable seeding and persistence)."
  in
  let report =
    report_flag ~doc:"Write the tussle.search-report/1 JSON artifact to $(docv)."
  in
  let run backend budget seed () corpus report =
    let corpus =
      Option.bind corpus (fun c -> if String.trim c.path = "" then None else Some c)
    in
    let search_report =
      write "search" corpus (fun corpus_dir ->
          Search.run ?corpus_dir ~backend ~scenarios:Tussle_chaos.Scenario.all
            ~seed ~budget ())
    in
    let valid =
      publish "search" report (Obs_search_report.to_json search_report)
        ~summary:(Obs_search_report.summary search_report) ~problems:[]
    in
    Ok (if (not valid) || search_report.findings <> [] then 1 else 0)
  in
  subcommand "search"
    ~doc:"adversarial search over fault-plan space: coverage-guided mutation \
          or bounded-exhaustive enumeration against the invariant registry"
    (ok run $? backend $? budget $? seed $? domain_budget $! corpus $! report)

let scenario_cmd =
  let module Actor = Tussle_core.Actor in
  let module Scenario = Tussle_core.Scenario in
  let rounds =
    checked [ "rounds" ] ~absent:"30" ~default:30
      (Pool.int_at_least ~what:"round count" 1)
      ~doc:"Maximum number of rounds."
  in
  let kinds =
    let doc =
      "Actors to include (comma-separated): user, isp, government, \
       rights-holder, content-provider, private-network, designer."
    in
    Arg.(value & opt string "isp,user,government" & info [ "actors" ] ~doc)
  in
  let run rounds kinds =
    let kind name =
      List.find_opt (fun k -> Actor.kind_to_string k = name) Actor.all_kinds
    in
    match
      List.filter_map kind (ids kinds)
      |> List.mapi (fun i k -> Actor.make ~id:i ~name:(Actor.kind_to_string k) k)
    with
    | [] ->
      prerr_endline "no recognizable actors";
      Ok 2
    | actors ->
      print_string
        (Scenario.render
           (Scenario.run ~max_rounds:rounds ~actors
              ~available:Tussle_core.Mechanism.available_to ()));
      Ok 0
  in
  subcommand "scenario" ~doc:"run the actor/mechanism tussle engine"
    (ok run $? rounds $! kinds)

let market_cmd =
  let module Market = Tussle_econ.Market in
  let providers =
    checked [ "providers" ] ~docv:"N" ~default:4
      (Pool.int_at_least ~what:"provider count" 1)
      ~doc:"Number of providers (default 4)."
  in
  let switching =
    checked [ "switching-cost" ] ~docv:"COST" ~default:0.0
      (Pool.non_negative_of_string ~what:"switching cost")
      ~doc:"Lock-in cost, a finite number >= 0 (default 0)."
  in
  let seed =
    checked [ "seed" ] ~docv:"SEED" ~default:42 (Pool.seed_of_string ~what:"seed")
      ~doc:"RNG seed (default 42)."
  in
  let run providers switching seed =
    let cfg =
      { Market.default_config with
        Market.n_providers = providers; switching_cost = switching }
    in
    print_string
      (Market.summary cfg (Market.run (Tussle_prelude.Rng.create seed) cfg));
    Ok 0
  in
  subcommand "market" ~doc:"run the access-provider market model"
    (ok run $? providers $? switching $? seed)

let policy_cmd =
  let module Eval = Tussle_policy.Eval in
  let file = pos_file 0 "POLICY-FILE" ~doc:"Policy file to load." in
  let request =
    pos_file 1 "SUBJECT:ACTION:RESOURCE" ~doc:"Request as subject:action:resource."
  in
  let root = Arg.(value & opt string "root" & info [ "root" ] ~doc:"Trust root.") in
  let attr =
    Arg.(value & opt_all string []
         & info [ "a"; "attr" ] ~doc:"Attribute binding name=value (int or string).")
  in
  let run file request root attrs =
    let* text = Obs_json.read_file file in
    try
      let policy = Tussle_policy.Parser.parse text in
      match Eval.request_of_strings request attrs with
      | Some req ->
        let d = Eval.decide ~root policy req in
        print_endline (Eval.decision_to_string d);
        Ok (if d = Eval.Allowed then 0 else 1)
      | None ->
        prerr_endline "request must be subject:action:resource";
        Ok 2
    with
    | Tussle_policy.Parser.Parse_error msg ->
      Printf.eprintf "parse error: %s\n" msg;
      Ok 2
    | Tussle_policy.Lexer.Lex_error (msg, pos) ->
      Printf.eprintf "lex error at %d: %s\n" pos msg;
      Ok 2
  in
  subcommand "policy" ~doc:"evaluate a policy compliance query"
    (ok run $! file $! request $! root $! attr)

let () =
  Printexc.record_backtrace true;
  let doc = "the Tussle-in-Cyberspace simulation framework" in
  let info = Cmd.info "tussle" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [ experiments_cmd; chaos_cmd; sweep_cmd; search_cmd; explain_cmd;
        report_cmd; scenario_cmd; market_cmd; policy_cmd ]
  in
  exit (Cmd.eval' group)
