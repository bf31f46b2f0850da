(* The statistical sweep driver: fan an experiment's probe across many
   seeds on [Pool.map], aggregate the named metrics, and judge the
   hypothesis tests into a sweep report.

   Determinism contract (same as the chaos sweep): every run's seed
   derives only from (sweep seed, run index), the probe items are
   fanned out with order-preserving [Pool.map], and the report carries
   no wall-clock or domain-count field — so the rendered summary and
   the JSON artifact are byte-identical for any [--domains] and across
   repeated runs at the same seed. *)

module Pool = Tussle_prelude.Pool
module Rng = Tussle_prelude.Rng
module Stats = Tussle_prelude.Stats
module Sweep_report = Tussle_obs.Sweep_report
module Experiment = Tussle_experiments.Experiment

type error = { exp_id : string; message : string }

(* One probe replicate, through the real fault-isolation/watchdog
   machinery: the probe is wrapped in a throwaway [Experiment.t] so
   [Experiment.run] gives it the same uncaught-exception capture and
   optional timeout the battery gives a full experiment.  The [result]
   ref is written before the watchdog's atomic slot is set and read
   after it is observed, so the value is safely published even when
   the probe ran in a spawned domain. *)
let run_probe ?timeout_s (e : Experiment.t) probe ~seed index =
  let result = ref [] in
  let shim =
    {
      Experiment.id = e.Experiment.id;
      title = e.Experiment.title;
      paper_claim = "";
      run =
        (fun () ->
          result := probe ~seed:(Rng.seed_at ~seed index);
          ("", true));
      sweep = None;
    }
  in
  let o = Experiment.run ?timeout_s shim in
  match o.Experiment.status with
  | Experiment.Held -> Ok !result
  | Experiment.Violated -> Error "probe shim violated (cannot happen)"
  | Experiment.Failed msg ->
    Error
      (Printf.sprintf "run %d (seed %d): %s" index (Rng.seed_at ~seed index)
         msg)

(* Collate one experiment's per-run metric lists into named sample
   arrays, insisting every run produced the same metric names in the
   same order (anything else breaks pairing silently). *)
let collate exp_id rows =
  match rows with
  | [] -> Error { exp_id; message = "no runs" }
  | first :: _ ->
    let names = List.map fst first in
    let mismatch =
      List.find_index (fun row -> List.map fst row <> names) rows
    in
    (match mismatch with
    | Some i ->
      Error
        {
          exp_id;
          message =
            Printf.sprintf
              "run %d returned metric names [%s], run 0 returned [%s]" i
              (String.concat "; " (List.map fst (List.nth rows i)))
              (String.concat "; " names);
        }
    | None ->
      let samples =
        List.map
          (fun name ->
            ( name,
              Array.of_list (List.map (fun row -> List.assoc name row) rows) ))
          names
      in
      Ok samples)

let metric_of_samples (name, samples) =
  let mean = Stats.mean samples in
  let stddev = Stats.sample_stddev samples in
  let ci_lo, ci_hi = Stats.Test.mean_ci samples in
  { Sweep_report.name; samples; mean; stddev; ci_lo; ci_hi }

let judge_experiment ~alpha (e : Experiment.t) judge samples =
  match
    judge (fun name ->
        match List.assoc_opt name samples with
        | Some xs -> xs
        | None -> raise Not_found)
  with
  | verdicts ->
    Ok
      (List.map
         (fun (v : Experiment.verdict) ->
           {
             Sweep_report.claim = v.Experiment.claim;
             test = v.Experiment.test;
             statistic = v.Experiment.result.Stats.Test.statistic;
             df = v.Experiment.result.Stats.Test.df;
             pvalue = v.Experiment.result.Stats.Test.pvalue;
             alpha;
             pass = v.Experiment.result.Stats.Test.pvalue < alpha;
           })
         verdicts)
  | exception Not_found ->
    Error
      {
        exp_id = e.Experiment.id;
        message = "judge asked for a metric the probe never produced";
      }
  | exception exn ->
    Error
      {
        exp_id = e.Experiment.id;
        message = Printf.sprintf "judge raised: %s" (Printexc.to_string exn);
      }

let run_sweep ?timeout_s ~seed ~runs ~alpha experiments =
  if runs < 2 then invalid_arg "Driver.run_sweep: runs must be >= 2";
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Driver.run_sweep: alpha must be in (0, 1)";
  let sweepable =
    List.filter_map
      (fun (e : Experiment.t) ->
        Option.map (fun s -> (e, s)) e.Experiment.sweep)
      experiments
  in
  (* one flat fan-out across every (experiment, run) pair, so a slow
     experiment's runs interleave with a fast one's instead of forming
     a barrier between experiments *)
  let items =
    List.concat_map
      (fun (e, (s : Experiment.sweep)) ->
        List.init runs (fun i -> (e, s, i)))
      sweepable
  in
  let results =
    Pool.map
      (fun (e, (s : Experiment.sweep), i) ->
        run_probe ?timeout_s e s.Experiment.probe ~seed i)
      items
  in
  (* regroup in experiment order; Pool.map preserved item order *)
  let rec take n = function
    | rest when n = 0 -> ([], rest)
    | x :: rest ->
      let xs, rest = take (n - 1) rest in
      (x :: xs, rest)
    | [] -> invalid_arg "Driver.run_sweep: short result list"
  in
  let exps, errors, _ =
    List.fold_left
      (fun (exps, errors, remaining) (e, (s : Experiment.sweep)) ->
        let rows, remaining = take runs remaining in
        let probe_errors =
          List.filter_map
            (function
              | Error m -> Some { exp_id = e.Experiment.id; message = m }
              | Ok _ -> None)
            rows
        in
        if probe_errors <> [] then (exps, errors @ probe_errors, remaining)
        else
          let rows = List.filter_map Result.to_option rows in
          match collate e.Experiment.id rows with
          | Error err -> (exps, errors @ [ err ], remaining)
          | Ok samples -> (
            match judge_experiment ~alpha e s.Experiment.judge samples with
            | Error err -> (exps, errors @ [ err ], remaining)
            | Ok verdicts ->
              let exp =
                {
                  Sweep_report.id = e.Experiment.id;
                  title = e.Experiment.title;
                  runs;
                  metrics = List.map metric_of_samples samples;
                  verdicts;
                }
              in
              (exps @ [ exp ], errors, remaining)))
      ([], [], results) sweepable
  in
  let report = Sweep_report.make ~sweep_seed:seed ~runs exps in
  (report, errors)

let error_string e = Printf.sprintf "%s: %s" e.exp_id e.message
