(* The statistical sweep layer: driver determinism across domain
   counts, sweep-report JSON round-trip + schema validation, the
   report-consistency invariants on hand-built inconsistent reports,
   and the driver's fault isolation (a raising probe fails its own
   experiment, not the sweep). *)

module Driver = Tussle_sweep.Driver
module Sweep_report = Tussle_obs.Sweep_report
module Json = Tussle_obs.Json
module Invariant = Tussle_chaos.Invariant
module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry
module T = Tussle_prelude.Stats.Test

(* a cheap, fully deterministic synthetic experiment: metric values
   derive from the seed arithmetically, so expected samples are
   computable in the test *)
let synthetic ?(id = "SYN") ?(probe_exn = false) ?(judge_metric = "x") () =
  let probe ~seed =
    if probe_exn && seed mod 2 = 0 then failwith "synthetic probe boom";
    let x = float_of_int (seed mod 97) in
    [ ("x", x); ("y", (2.0 *. x) +. 1.0) ]
  in
  let judge sample =
    [
      {
        Experiment.claim = "y > x";
        test = "paired t, greater";
        result = T.paired ~alternative:T.Greater (sample "y") (sample judge_metric);
      };
    ]
  in
  {
    Experiment.id;
    title = "synthetic sweep fixture";
    paper_claim = "";
    run = (fun () -> ("", true));
    sweep = Some { Experiment.probe; judge };
  }

let run_synthetic ?(domains = Tussle_prelude.Pool.domains ()) ?(runs = 8) () =
  Budget.with_domains domains (fun () ->
      Driver.run_sweep ~seed:1031 ~runs ~alpha:0.01 [ synthetic () ])

(* ---------- determinism ---------- *)

let test_seed_derivation () =
  Alcotest.(check int) "stride" (1031 + 7919) (Driver.run_seed ~seed:1031 0);
  Alcotest.(check int) "index 4" (1031 + (7919 * 5)) (Driver.run_seed ~seed:1031 4)

let test_driver_deterministic_across_domains () =
  let render (r, errs) =
    Alcotest.(check int) "no errors" 0 (List.length errs);
    Json.to_string (Sweep_report.to_json r) ^ Sweep_report.summary r
  in
  let d1 = render (run_synthetic ~domains:1 ()) in
  let d2 = render (run_synthetic ~domains:2 ()) in
  let d4 = render (run_synthetic ~domains:4 ()) in
  Alcotest.(check string) "1 = 2 domains" d1 d2;
  Alcotest.(check string) "2 = 4 domains" d2 d4;
  let again = render (run_synthetic ~domains:2 ()) in
  Alcotest.(check string) "repeat run identical" d1 again

let test_real_experiments_deterministic () =
  (* the real E29 surface, tiny N: byte-identical artifact across
     domain counts *)
  let e29 =
    match Registry.find "E29" with Some e -> e | None -> Alcotest.fail "no E29"
  in
  let run domains =
    let r, errs =
      Budget.with_domains domains (fun () ->
          Driver.run_sweep ~seed:7 ~runs:3 ~alpha:0.05 [ e29 ])
    in
    Alcotest.(check int) "no errors" 0 (List.length errs);
    Json.to_string (Sweep_report.to_json r)
  in
  Alcotest.(check string) "E29 sweep identical across domains" (run 1) (run 4)

let test_samples_are_seed_derived () =
  let r, _ = run_synthetic ~domains:1 ~runs:5 () in
  match r.Sweep_report.experiments with
  | [ e ] ->
    let x = List.find (fun m -> m.Sweep_report.name = "x") e.Sweep_report.metrics in
    let expected =
      Array.init 5 (fun i -> float_of_int (Driver.run_seed ~seed:1031 i mod 97))
    in
    Alcotest.(check (array (float 0.0))) "samples in run order" expected
      x.Sweep_report.samples
  | l -> Alcotest.failf "expected 1 experiment, got %d" (List.length l)

(* ---------- report round-trip and validation ---------- *)

let test_report_roundtrip () =
  let r, _ = run_synthetic ~runs:6 () in
  let json = Sweep_report.to_json r in
  (match Sweep_report.validate json with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fresh report invalid: %s" msg);
  let reparsed =
    match Json.parse (Json.to_string json) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "reparse failed: %s" msg
  in
  (match Sweep_report.validate reparsed with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "reparsed report invalid: %s" msg);
  match Sweep_report.of_json reparsed with
  | Error msg -> Alcotest.failf "of_json failed: %s" msg
  | Ok r2 ->
    Alcotest.(check string) "summary survives round-trip"
      (Sweep_report.summary r) (Sweep_report.summary r2);
    Alcotest.(check int) "runs" r.Sweep_report.runs r2.Sweep_report.runs

let test_report_infinite_statistic_roundtrip () =
  (* a constant paired difference yields t = +inf; the artifact must
     carry it through JSON (which renders bare non-finite floats as
     null) *)
  let r, errs =
    Budget.with_domains 1 @@ fun () ->
    Driver.run_sweep ~seed:3 ~runs:4 ~alpha:0.01
      [
        {
          (synthetic ()) with
          Experiment.sweep =
            Some
              {
                Experiment.probe = (fun ~seed -> [ ("a", float_of_int (seed mod 7)); ("b", float_of_int (seed mod 7) +. 1.0) ]);
                judge =
                  (fun sample ->
                    [
                      {
                        Experiment.claim = "b > a (constant gap)";
                        test = "paired t, greater";
                        result =
                          T.paired ~alternative:T.Greater (sample "b") (sample "a");
                      };
                    ]);
              };
        };
      ]
  in
  Alcotest.(check int) "no errors" 0 (List.length errs);
  let v =
    match r.Sweep_report.experiments with
    | [ e ] -> List.hd e.Sweep_report.verdicts
    | _ -> Alcotest.fail "expected 1 experiment"
  in
  Alcotest.(check bool) "statistic is +inf" true
    (v.Sweep_report.statistic = infinity);
  Alcotest.(check bool) "passes" true v.Sweep_report.pass;
  let reparsed =
    match Json.parse (Json.to_string (Sweep_report.to_json r)) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "reparse failed: %s" msg
  in
  match Sweep_report.of_json reparsed with
  | Error msg -> Alcotest.failf "of_json failed: %s" msg
  | Ok r2 -> (
    match r2.Sweep_report.experiments with
    | [ e ] ->
      let v2 = List.hd e.Sweep_report.verdicts in
      Alcotest.(check bool) "inf survives round-trip" true
        (v2.Sweep_report.statistic = infinity)
    | _ -> Alcotest.fail "round-trip lost the experiment")

let test_validate_rejects () =
  let r, _ = run_synthetic ~runs:4 () in
  let base = Sweep_report.to_json r in
  let tamper f =
    match base with
    | Json.Obj fields -> Json.Obj (f fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  (match Sweep_report.validate (tamper (fun fs -> List.remove_assoc "schema" fs)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing schema accepted");
  (match
     Sweep_report.validate
       (tamper (fun fs -> ("schema", Json.Str "bogus/9") :: List.remove_assoc "schema" fs))
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong schema accepted");
  (match
     Sweep_report.validate
       (tamper (fun fs -> ("runs", Json.Int 1) :: List.remove_assoc "runs" fs))
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "runs=1 accepted")

(* ---------- report-consistency invariants ---------- *)

let metric name samples =
  let open Tussle_prelude.Stats in
  {
    Sweep_report.name;
    samples;
    mean = mean samples;
    stddev = sample_stddev samples;
    ci_lo = fst (Test.mean_ci samples);
    ci_hi = snd (Test.mean_ci samples);
  }

let consistent_report () =
  let m = metric "m" [| 1.0; 2.0; 3.0; 4.0 |] in
  Sweep_report.make ~sweep_seed:1 ~runs:4
    [
      {
        Sweep_report.id = "E1";
        title = "t";
        runs = 4;
        metrics = [ m ];
        verdicts = [];
      };
    ]

let names_of vs = List.map (fun v -> v.Invariant.invariant) vs

let test_invariants_clean () =
  Alcotest.(check (list string)) "consistent report is clean" []
    (names_of (Invariant.check_report (consistent_report ())));
  (* and the real driver's artifact is too *)
  let r, _ = run_synthetic ~runs:6 () in
  Alcotest.(check (list string)) "driver report is clean" []
    (names_of (Invariant.check_report r))

let with_metric f =
  let r = consistent_report () in
  match r.Sweep_report.experiments with
  | [ e ] ->
    {
      r with
      Sweep_report.experiments =
        [ { e with Sweep_report.metrics = List.map f e.Sweep_report.metrics } ];
    }
  | _ -> assert false

let test_invariant_n_mismatch () =
  let bad = with_metric (fun m -> { m with Sweep_report.samples = [| 1.0; 2.0 |] }) in
  Alcotest.(check bool) "samples/runs mismatch flagged" true
    (List.mem "sweep-samples-match-runs" (names_of (Invariant.check_report bad)))

let test_invariant_ci_brackets () =
  let bad = with_metric (fun m -> { m with Sweep_report.ci_hi = m.Sweep_report.mean -. 1.0 }) in
  Alcotest.(check bool) "CI not bracketing flagged" true
    (List.mem "sweep-ci-brackets-mean" (names_of (Invariant.check_report bad)))

let test_invariant_mean_mismatch () =
  let bad =
    with_metric (fun m ->
        { m with Sweep_report.mean = m.Sweep_report.mean +. 0.5;
                 ci_hi = m.Sweep_report.ci_hi +. 1.0 })
  in
  Alcotest.(check bool) "recorded mean vs samples flagged" true
    (List.mem "sweep-mean-matches-samples" (names_of (Invariant.check_report bad)))

let test_invariant_non_finite () =
  let bad =
    with_metric (fun m ->
        let s = Array.copy m.Sweep_report.samples in
        s.(0) <- Float.nan;
        { m with Sweep_report.samples = s })
  in
  Alcotest.(check bool) "non-finite sample flagged" true
    (List.mem "sweep-stats-well-formed" (names_of (Invariant.check_report bad)));
  let bad2 = with_metric (fun m -> { m with Sweep_report.stddev = -1.0 }) in
  Alcotest.(check bool) "negative stddev flagged" true
    (List.mem "sweep-stats-well-formed" (names_of (Invariant.check_report bad2)))

let test_invariant_registry_names () =
  Alcotest.(check (list string)) "registry order"
    [
      "sweep-samples-match-runs"; "sweep-ci-brackets-mean";
      "sweep-mean-matches-samples"; "sweep-stats-well-formed";
    ]
    Invariant.report_names

(* ---------- fault isolation ---------- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_probe_failure_isolated () =
  let bad = synthetic ~id:"BAD" ~probe_exn:true () in
  let good = synthetic ~id:"GOOD" () in
  let r, errors =
    Budget.with_domains 1 (fun () ->
        Driver.run_sweep ~seed:1031 ~runs:4 ~alpha:0.01 [ bad; good ])
  in
  Alcotest.(check bool) "errors reported" true (errors <> []);
  List.iter
    (fun e -> Alcotest.(check string) "error names the experiment" "BAD" e.Driver.exp_id)
    errors;
  (match r.Sweep_report.experiments with
  | [ e ] -> Alcotest.(check string) "good experiment survives" "GOOD" e.Sweep_report.id
  | l -> Alcotest.failf "expected 1 surviving experiment, got %d" (List.length l));
  Alcotest.(check bool) "error message mentions the exception" true
    (List.exists (fun e -> contains (Driver.error_string e) "boom") errors)

let test_judge_unknown_metric () =
  let e = synthetic ~id:"JUDGE" ~judge_metric:"zz" () in
  let r, errors =
    Budget.with_domains 1 (fun () ->
        Driver.run_sweep ~seed:1031 ~runs:4 ~alpha:0.01 [ e ])
  in
  Alcotest.(check int) "experiment dropped" 0 (List.length r.Sweep_report.experiments);
  match errors with
  | [ err ] -> Alcotest.(check string) "error owner" "JUDGE" err.Driver.exp_id
  | l -> Alcotest.failf "expected 1 error, got %d" (List.length l)

(* The E29+E30 sweep-report artifact at 4 runs, pinned by MD5: both
   experiments run the shared ring harness, whose refactors must keep
   every sample bit-identical. *)
let test_heal_report_pinned () =
  let exps =
    List.map
      (fun id -> Option.get (Registry.find id))
      [ "E29"; "E30" ]
  in
  let r, errors =
    Budget.with_domains 1 (fun () ->
        Driver.run_sweep ~seed:1031 ~runs:4 ~alpha:0.01 exps)
  in
  Alcotest.(check int) "no errors" 0 (List.length errors);
  Alcotest.(check string) "report md5" "a03cd0ae405ab8d9f0f1083312898c9e"
    (Digest.to_hex (Digest.string (Json.to_string (Sweep_report.to_json r))))

let test_bad_args () =
  Alcotest.check_raises "runs < 2"
    (Invalid_argument "Driver.run_sweep: runs must be >= 2") (fun () ->
      ignore (Driver.run_sweep ~seed:1 ~runs:1 ~alpha:0.01 []));
  Alcotest.check_raises "alpha out of range"
    (Invalid_argument "Driver.run_sweep: alpha must be in (0, 1)") (fun () ->
      ignore (Driver.run_sweep ~seed:1 ~runs:2 ~alpha:1.0 []))

let test_alpha_controls_pass () =
  (* borderline p: make a weak effect, then check the pass flag tracks
     alpha rather than a hardcoded threshold *)
  let e = synthetic () in
  let run alpha =
    Budget.with_domains 1 (fun () ->
        Driver.run_sweep ~seed:1031 ~runs:4 ~alpha [ e ])
  in
  let strict, _ = run 1e-12 in
  let lax, _ = run 0.5 in
  let verdict r =
    match r.Sweep_report.experiments with
    | [ e ] -> List.hd e.Sweep_report.verdicts
    | _ -> Alcotest.fail "expected 1 experiment"
  in
  let vs = verdict strict and vl = verdict lax in
  Alcotest.(check (float 1e-12)) "same p-value" vs.Sweep_report.pvalue vl.Sweep_report.pvalue;
  Alcotest.(check bool) "pass = p < alpha (strict)"
    (vs.Sweep_report.pvalue < 1e-12) vs.Sweep_report.pass;
  Alcotest.(check bool) "pass = p < alpha (lax)"
    (vl.Sweep_report.pvalue < 0.5) vl.Sweep_report.pass

let () =
  Alcotest.run "sweep"
    [
      ( "determinism",
        [
          Alcotest.test_case "seed derivation" `Quick test_seed_derivation;
          Alcotest.test_case "driver identical across domains" `Quick
            test_driver_deterministic_across_domains;
          Alcotest.test_case "E29 sweep identical across domains" `Quick
            test_real_experiments_deterministic;
          Alcotest.test_case "samples seed-derived in run order" `Quick
            test_samples_are_seed_derived;
          Alcotest.test_case "E29+E30 report pinned" `Quick
            test_heal_report_pinned;
        ] );
      ( "report",
        [
          Alcotest.test_case "round-trip + validate" `Quick test_report_roundtrip;
          Alcotest.test_case "infinite statistic round-trip" `Quick
            test_report_infinite_statistic_roundtrip;
          Alcotest.test_case "validate rejects tampering" `Quick
            test_validate_rejects;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "clean reports pass" `Quick test_invariants_clean;
          Alcotest.test_case "n mismatch" `Quick test_invariant_n_mismatch;
          Alcotest.test_case "CI must bracket mean" `Quick test_invariant_ci_brackets;
          Alcotest.test_case "mean must match samples" `Quick
            test_invariant_mean_mismatch;
          Alcotest.test_case "non-finite flagged" `Quick test_invariant_non_finite;
          Alcotest.test_case "registry names" `Quick test_invariant_registry_names;
        ] );
      ( "fault isolation",
        [
          Alcotest.test_case "probe failure isolated" `Quick
            test_probe_failure_isolated;
          Alcotest.test_case "judge unknown metric" `Quick test_judge_unknown_metric;
          Alcotest.test_case "bad arguments" `Quick test_bad_args;
          Alcotest.test_case "alpha controls pass flag" `Quick
            test_alpha_controls_pass;
        ] );
    ]
