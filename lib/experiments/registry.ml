let all =
  [
    E01_lockin.experiment;
    E02_value_pricing.experiment;
    E03_broadband.experiment;
    E04_source_routing.experiment;
    E05_trust_firewall.experiment;
    E06_qos_deployment.experiment;
    E07_name_isolation.experiment;
    E08_visibility.experiment;
    E09_encryption.experiment;
    E10_ontology.experiment;
    E11_game_battery.experiment;
    E12_actor_network.experiment;
    E13_intermediary.experiment;
    E14_congestion.experiment;
    E15_multicast.experiment;
    E16_value_flow.experiment;
    E17_traceback.experiment;
    E18_steganography.experiment;
    E19_scorecard.experiment;
    E20_caching.experiment;
    E21_diagnosis.experiment;
    E22_firewall_control.experiment;
    E23_guidelines.experiment;
    E24_vertical.experiment;
    E25_nat.experiment;
    E26_dns_perversion.experiment;
    E27_transport.experiment;
    E28_faults.experiment;
    E29_selfheal.experiment;
    E30_verified_heal.experiment;
  ]

(* Deliberately-hung toy experiment (outside [all]): spins forever at a
   GC-safe point so tests and CI can check that the watchdog turns a
   runaway run into FAILED (timeout) without killing the battery.  Only
   ever run it with [?timeout_s] armed. *)
let hang_probe =
  {
    Experiment.id = "E99";
    title = "watchdog hang probe (never terminates on its own)";
    paper_claim =
      "none — a test fixture, not a paper claim: a deliberately-hung \
       experiment that the per-experiment watchdog must convert into a \
       FAILED (timeout) outcome while the rest of the battery carries on.";
    run =
      (fun () ->
        while true do
          Domain.cpu_relax ()
        done;
        ("unreachable", false));
    sweep = None;
  }

let sweepables () =
  List.filter (fun e -> e.Experiment.sweep <> None) all

let find id =
  let wanted = String.lowercase_ascii id in
  List.find_opt
    (fun e -> String.lowercase_ascii e.Experiment.id = wanted)
    (all @ [ hang_probe ])

(* Each experiment renders into its own buffer inside a worker domain
   (experiments share no mutable state); the caller prints the buffers
   in registry order, so the battery's output is byte-identical however
   many domains run it. *)
let run_list ?domains ?timeout_s experiments =
  Tussle_prelude.Pool.map ?domains
    (fun e -> Experiment.run ?timeout_s e)
    experiments

let run_battery ?timeout_s () =
  let wall0 = Tussle_obs.Clock.now_s () in
  let outcomes =
    Tussle_obs.Trace.with_span ~cat:"battery" "battery" (fun () ->
        run_list ?timeout_s all)
  in
  List.iter
    (fun o ->
      print_string o.Experiment.output;
      print_newline ())
    outcomes;
  let ok = List.for_all Experiment.held outcomes in
  Printf.printf "=== %d experiments, shape checks %s ===\n" (List.length all)
    (if ok then "ALL HOLD" else "SOME FAILED");
  (ok, outcomes, Tussle_obs.Clock.now_s () -. wall0)

let run_one ?timeout_s id =
  match find id with
  | None -> Error (Printf.sprintf "unknown experiment %S" id)
  | Some e ->
    let o = Experiment.run ?timeout_s e in
    print_string o.Experiment.output;
    Ok o

(* ---------- battery report ---------- *)

let report ~wall_s outcomes =
  let exp_of_outcome (o : Experiment.outcome) =
    let status, detail =
      match o.Experiment.status with
      | Experiment.Held -> ("held", "")
      | Experiment.Violated -> ("violated", "")
      | Experiment.Failed msg -> ("failed", msg)
    in
    {
      Tussle_obs.Report.id = o.Experiment.exp_id;
      title = o.Experiment.exp_title;
      status;
      detail;
      wall_s = o.Experiment.wall_s;
      events_executed = o.Experiment.events_executed;
      allocated_bytes = o.Experiment.allocated_bytes;
    }
  in
  let pool =
    Option.map
      (fun (s : Tussle_prelude.Pool.stats) ->
        {
          Tussle_obs.Report.workers = s.Tussle_prelude.Pool.workers;
          tasks = s.Tussle_prelude.Pool.tasks;
          busy_s = s.Tussle_prelude.Pool.busy_s;
          pool_wall_s = s.Tussle_prelude.Pool.wall_s;
        })
      (Tussle_prelude.Pool.last_stats ())
  in
  let metrics = Tussle_obs.Metrics.snapshot () in
  Tussle_obs.Report.make ~label:"battery" ?pool ~metrics
    ~domains:(Tussle_prelude.Pool.domains ()) ~wall_s
    (List.map exp_of_outcome outcomes)

(* ---------- telemetry epilogue ---------- *)

let telemetry ~metrics ~trace ~report:file () =
  if metrics || file <> None then Tussle_obs.Metrics.enable ();
  if trace <> None then Tussle_obs.Trace.enable ();
  let emit_report ~wall_s outcomes =
    match file with
    | None -> ()
    | Some file ->
      let r = report ~wall_s outcomes in
      (try Tussle_obs.Report.write file r
       with Sys_error msg ->
         prerr_endline ("experiments: --report: " ^ msg);
         exit 2);
      print_newline ();
      print_string (Tussle_obs.Report.summary r)
  in
  let finish code =
    Option.iter Tussle_obs.Trace.write_chrome trace;
    if metrics then begin
      print_newline ();
      print_string
        (Tussle_obs.Metrics.render (Tussle_obs.Metrics.snapshot ()))
    end;
    code
  in
  (emit_report, finish)
