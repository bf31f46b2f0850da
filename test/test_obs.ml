(* Tests for tussle.obs: JSON round-trips, histogram bucket pins,
   counter/gauge merging across domains, span nesting and ring
   overwrite, Chrome trace / battery report well-formedness, and the
   guard that telemetry never perturbs battery output. *)

module Json = Tussle_obs.Json
module Metrics = Tussle_obs.Metrics
module Trace = Tussle_obs.Trace
module Flight = Tussle_obs.Flight
module Report = Tussle_obs.Report
module Trends = Tussle_obs.Trends
module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry
module Pool = Tussle_prelude.Pool

let obs_off () =
  Metrics.disable ();
  Trace.disable ();
  Metrics.reset ();
  Trace.reset ()

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.List [] ]);
        ("o", Json.Obj [ ("nested", Json.Bool false) ]);
      ]
  in
  List.iter
    (fun minify ->
      match Json.parse (Json.to_string ~minify v) with
      | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
      | Error msg -> Alcotest.fail msg)
    [ true; false ]

let test_json_parse_basics () =
  (match Json.parse "{\"a\": [1, 2.5, \"\\u0041\", null]}" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "A"; Json.Null ]) ])
    -> ()
  | Ok other -> Alcotest.failf "unexpected parse: %s" (Json.to_string other)
  | Error msg -> Alcotest.fail msg);
  (match Json.parse "[1] garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (match Json.parse "{\"a\":}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad object accepted");
  (* non-finite floats serialize as null, keeping output valid JSON *)
  match Json.parse (Json.to_string (Json.Float infinity)) with
  | Ok Json.Null -> ()
  | Ok other -> Alcotest.failf "inf became %s" (Json.to_string other)
  | Error msg -> Alcotest.fail msg

(* ---------- histogram buckets ---------- *)

let test_bucket_boundaries () =
  let check v expected =
    Alcotest.(check int)
      (Printf.sprintf "bucket_index %g" v)
      expected (Metrics.bucket_index v)
  in
  (* bucket 0 is [0, 1e-9); bucket i >= 1 is [1e-9*2^(i-1), 1e-9*2^i) *)
  check 0.0 0;
  check (-1.0) 0;
  check Float.nan 0;
  check 0.5e-9 0;
  check 1e-9 1;
  check 1.5e-9 1;
  check 2e-9 2;
  check (2e-9 -. 1e-22) 1;
  check 4e-9 3;
  check 1.0 30;
  check 1e30 (Metrics.bucket_count - 1);
  Alcotest.(check (float 1e-24)) "upper 0" 1e-9 (Metrics.bucket_upper 0);
  Alcotest.(check (float 1e-24)) "upper 1" 2e-9 (Metrics.bucket_upper 1);
  Alcotest.(check (float 1e-15)) "upper 30"
    (1e-9 *. 1073741824.0)
    (Metrics.bucket_upper 30);
  (* every sample lands strictly below its bucket's upper bound and at
     or above the previous bucket's *)
  List.iter
    (fun v ->
      let b = Metrics.bucket_index v in
      Alcotest.(check bool) "below upper" true (v < Metrics.bucket_upper b);
      if b > 0 then
        Alcotest.(check bool) "at or above lower" true
          (v >= Metrics.bucket_upper (b - 1)))
    [ 1e-10; 1e-9; 3.7e-9; 1e-6; 0.25; 17.0 ]

(* ---------- counters and gauges across domains ---------- *)

let test_counter_merge () =
  obs_off ();
  Metrics.enable ();
  let c = Metrics.counter "test.merge_counter" in
  let n_domains = 4 and m = 1000 in
  let spawned =
    Array.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to m do
              Metrics.incr c
            done))
  in
  for _ = 1 to m do
    Metrics.incr c
  done;
  Array.iter Domain.join spawned;
  (match List.assoc_opt "test.merge_counter" (Metrics.snapshot ()) with
  | Some (Metrics.Count total) ->
    Alcotest.(check int) "all increments merged" ((n_domains + 1) * m) total
  | _ -> Alcotest.fail "counter missing from snapshot");
  (* local_count sees only the calling domain's share *)
  Alcotest.(check int) "local share" m (Metrics.local_count c);
  obs_off ()

let test_gauge_merge_and_reset () =
  obs_off ();
  Metrics.enable ();
  let g = Metrics.gauge "test.merge_gauge" in
  Metrics.set g 3.0;
  let d = Domain.spawn (fun () -> Metrics.set g 7.0; Metrics.set g 5.0) in
  Domain.join d;
  (match List.assoc_opt "test.merge_gauge" (Metrics.snapshot ()) with
  | Some (Metrics.Level { max_; sets; _ }) ->
    Alcotest.(check (float 0.0)) "max across domains" 7.0 max_;
    Alcotest.(check int) "sets summed" 3 sets
  | _ -> Alcotest.fail "gauge missing from snapshot");
  Metrics.reset ();
  (match List.assoc_opt "test.merge_gauge" (Metrics.snapshot ()) with
  | Some (Metrics.Level { sets; _ }) -> Alcotest.(check int) "reset" 0 sets
  | _ -> Alcotest.fail "gauge missing after reset");
  obs_off ()

let test_disabled_is_inert () =
  obs_off ();
  let c = Metrics.counter "test.disabled_counter" in
  Metrics.incr c;
  Metrics.add c 100;
  (match List.assoc_opt "test.disabled_counter" (Metrics.snapshot ()) with
  | Some (Metrics.Count n) -> Alcotest.(check int) "no increments recorded" 0 n
  | _ -> Alcotest.fail "counter missing");
  Trace.with_span "test.disabled_span" (fun () -> ());
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.events ()))

let test_histogram_observe () =
  obs_off ();
  Metrics.enable ();
  let h = Metrics.histogram "test.hist" in
  Metrics.observe h 1e-9;
  Metrics.observe h 1.5e-9;
  Metrics.observe h 0.25;
  (match List.assoc_opt "test.hist" (Metrics.snapshot ()) with
  | Some (Metrics.Dist { count; sum; buckets; p50; p90; p99 }) ->
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check (float 1e-12)) "sum" (0.25 +. 2.5e-9) sum;
    Alcotest.(check (list (pair int int)))
      "buckets" [ (1, 2); (Metrics.bucket_index 0.25, 1) ] buckets;
    (* 3 samples: p50 falls in the first bucket (2 of 3 samples),
       p90/p99 in the bucket holding the 0.25 sample *)
    Alcotest.(check (float 1e-24)) "p50" (Metrics.bucket_upper 1) p50;
    Alcotest.(check (float 1e-12)) "p90"
      (Metrics.bucket_upper (Metrics.bucket_index 0.25)) p90;
    Alcotest.(check (float 1e-12)) "p99"
      (Metrics.bucket_upper (Metrics.bucket_index 0.25)) p99
  | _ -> Alcotest.fail "histogram missing");
  obs_off ()

(* ---------- spans ---------- *)

let test_span_nesting () =
  obs_off ();
  Trace.enable ();
  Trace.with_span ~cat:"t" "outer" (fun () ->
      Trace.with_span ~cat:"t" "inner" (fun () -> ignore (Sys.opaque_identity 1)));
  (match Trace.events () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first" "outer" outer.Trace.name;
    Alcotest.(check string) "inner second" "inner" inner.Trace.name;
    Alcotest.(check bool) "inner starts after outer" true
      (inner.Trace.ts_ns >= outer.Trace.ts_ns);
    Alcotest.(check bool) "inner ends before outer" true
      (Int64.add inner.Trace.ts_ns inner.Trace.dur_ns
       <= Int64.add outer.Trace.ts_ns outer.Trace.dur_ns)
  | evs -> Alcotest.failf "expected 2 spans, got %d" (List.length evs));
  obs_off ()

let test_span_ring_overwrite () =
  obs_off ();
  Trace.enable ~capacity:4 ();
  (* a fresh domain gets a fresh ring at the current capacity *)
  let d =
    Domain.spawn (fun () ->
        for i = 1 to 10 do
          Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
        done)
  in
  Domain.join d;
  Alcotest.(check int) "ring keeps newest 4" 4 (List.length (Trace.events ()));
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped ());
  obs_off ()

let test_chrome_trace_json () =
  obs_off ();
  Trace.enable ();
  Trace.with_span ~cat:"c" ~args:[ ("k", "v") ] "spanned" (fun () -> ());
  let rendered = Json.to_string (Trace.to_chrome ()) in
  (match Json.parse rendered with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some [ ev ] ->
      let field name = Option.bind (Json.member name ev) Json.to_str in
      Alcotest.(check (option string)) "name" (Some "spanned") (field "name");
      Alcotest.(check (option string)) "ph" (Some "X") (field "ph");
      Alcotest.(check bool) "has ts" true
        (Option.is_some (Option.bind (Json.member "ts" ev) Json.to_float));
      Alcotest.(check bool) "has dur" true
        (Option.is_some (Option.bind (Json.member "dur" ev) Json.to_float));
      Alcotest.(check (option string)) "args kept" (Some "v")
        (Option.bind (Json.member "args" ev) (Json.member "k")
        |> Fun.flip Option.bind Json.to_str)
    | Some evs -> Alcotest.failf "expected 1 trace event, got %d" (List.length evs)
    | None -> Alcotest.fail "traceEvents missing"));
  obs_off ()

(* ---------- flight recorder ---------- *)

let flight_off () =
  Flight.disable ();
  Flight.reset ()

let test_flight_disabled_inert () =
  flight_off ();
  Alcotest.(check bool) "off by default here" false (Flight.enabled ());
  Flight.emit ~sim_t:1.0 ~flow:0 ~node:0 ~peer:1 ~detail:"x" ~value:2.0 "hop";
  Alcotest.(check int) "nothing retained" 0 (List.length (Flight.events ()));
  Alcotest.(check int) "nothing overwritten" 0 (Flight.dropped ())

let test_flight_ring_overwrite () =
  flight_off ();
  Flight.enable ~capacity:4 ();
  Flight.reset ();
  (* a fresh domain gets a fresh ring at the just-set capacity (the
     calling domain's ring, if any, was registered at its old size) *)
  let d =
    Domain.spawn (fun () ->
        for i = 0 to 9 do
          Flight.emit ~sim_t:(float_of_int i) ~flow:i ~node:i ~peer:(-1)
            ~detail:"" ~value:0.0 "e"
        done)
  in
  Domain.join d;
  let evs = Flight.events () in
  Alcotest.(check int) "capacity retained" 4 (List.length evs);
  Alcotest.(check (list int))
    "newest events win" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Flight.flow) evs);
  Alcotest.(check int) "overwritten counted" 6 (Flight.dropped ());
  flight_off ()

let test_flight_flow_ids () =
  flight_off ();
  Flight.enable ();
  Flight.reset ();
  Alcotest.(check int) "control flow is -1" (-1) Flight.control_flow;
  Alcotest.(check int) "first transfer id" (-2) (Flight.new_flow ());
  Alcotest.(check int) "second transfer id" (-3) (Flight.new_flow ());
  Flight.reset ();
  Alcotest.(check int) "reset restarts ids" (-2) (Flight.new_flow ());
  flight_off ()

(* ---------- battery report ---------- *)

let sample_report () =
  let exp id status =
    {
      Report.id;
      title = "title of " ^ id;
      status;
      detail = (if status = "failed" then "kaboom" else "");
      wall_s = 0.25;
      events_executed = 1000;
      allocated_bytes = 4096.0;
    }
  in
  Report.make ~label:"test-battery"
    ~pool:
      {
        Report.workers = 2;
        tasks = [| 2; 1 |];
        busy_s = [| 0.5; 0.25 |];
        pool_wall_s = 0.6;
      }
    ~metrics:[ ("x.count", Metrics.Count 3) ]
    ~domains:2 ~wall_s:0.75
    [ exp "E1" "held"; exp "E2" "violated"; exp "E3" "failed" ]

let test_report_json_valid () =
  let r = sample_report () in
  let rendered = Json.to_string (Report.to_json r) in
  match Json.parse rendered with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
    (match Report.validate json with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "emitted report fails validation: %s" msg);
    match Option.bind (Json.member "summary" json) (Json.member "held") with
    | Some (Json.Int 1) -> ()
    | _ -> Alcotest.fail "summary.held wrong")

let test_report_validate_rejects () =
  let r = sample_report () in
  let json = Report.to_json r in
  (* break it in representative ways *)
  let drop name =
    match json with
    | Json.Obj fields -> Json.Obj (List.remove_assoc name fields)
    | _ -> assert false
  in
  List.iter
    (fun (label, bad) ->
      match Report.validate bad with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "validate accepted %s" label)
    [
      ("missing schema", drop "schema");
      ("missing experiments", drop "experiments");
      ("missing summary", drop "summary");
      ("not an object", Json.List []);
      ( "wrong schema tag",
        match json with
        | Json.Obj fields ->
          Json.Obj (("schema", Json.Str "other/9") :: List.remove_assoc "schema" fields)
        | _ -> assert false );
    ]

let test_report_summary_and_imbalance () =
  let r = sample_report () in
  let s = Report.summary r in
  let contains haystack needle =
    let n = String.length haystack and m = String.length needle in
    let rec search i =
      i + m <= n && (String.sub haystack i m = needle || search (i + 1))
    in
    search 0
  in
  Alcotest.(check bool) "lists experiments" true (contains s "E2");
  Alcotest.(check bool) "totals line" true
    (contains s "3 experiments: 1 held, 1 violated, 1 failed");
  Alcotest.(check bool) "pool line" true (contains s "imbalance");
  Alcotest.(check (float 1e-9)) "imbalance" 0.5
    (Report.imbalance
       { Report.workers = 2; tasks = [| 1; 1 |]; busy_s = [| 0.5; 0.25 |];
         pool_wall_s = 1.0 })

(* ---------- trends and perfgate ---------- *)

let sample_exps () =
  match Report.experiments_of_json (Report.to_json (sample_report ())) with
  | Ok exps -> exps
  | Error msg -> Alcotest.fail msg

let scale_e1 ~wall ~alloc exps =
  List.map
    (fun (e : Report.exp) ->
      if e.id = "E1" then
        { e with wall_s = wall *. e.wall_s; allocated_bytes = alloc *. e.allocated_bytes }
      else e)
    exps

let check_gate label expected ?(ids = [ "E1"; "E3" ]) ~base cand =
  let _, verdict = Trends.gate ~tolerance:0.25 ~ids ~base cand in
  Alcotest.(check bool) label true (verdict = expected)

let test_gate_planted_regression () =
  let base = sample_exps () in
  check_gate "identical reports pass" Trends.Pass ~base base;
  let slow = scale_e1 ~wall:2.0 ~alloc:1.0 base in
  check_gate "2x wall on E1 fails" Trends.Regression ~base slow;
  check_gate "ungated ids ignore it" Trends.Pass ~ids:[ "E2"; "E3" ] ~base slow;
  let lines, _ = Trends.gate ~tolerance:0.25 ~ids:[ "E1" ] ~base slow in
  Alcotest.(check string) "gate lines"
    "  E1   wall_s          0.250s -> 0.500s (limit 0.312s)  REGRESSION\n\
    \  E1   allocated_bytes 0.0MB -> 0.0MB (limit 0.0MB)\n"
    lines

let test_gate_zero_baseline () =
  let base = scale_e1 ~wall:0.0 ~alloc:0.0 (sample_exps ()) in
  let cand = scale_e1 ~wall:1e6 ~alloc:1e6 (sample_exps ()) in
  check_gate "zero baseline gates nothing" Trends.Pass ~ids:[ "E1" ] ~base cand

let test_gate_missing_id () =
  let base = sample_exps () in
  check_gate "unknown id" Trends.Missing ~ids:[ "E1"; "E9" ] ~base base;
  let without_e3 = List.filter (fun (e : Report.exp) -> e.id <> "E3") base in
  check_gate "missing in report" Trends.Missing ~base without_e3;
  check_gate "missing in baseline" Trends.Missing ~base:without_e3
    (scale_e1 ~wall:2.0 ~alloc:1.0 base)

let test_history_round_trip () =
  let history = Filename.temp_file "tussle-history" ".jsonl" in
  let json = Report.to_json (sample_report ()) in
  let line = Trends.history_line json (sample_exps ()) in
  for _ = 1 to 3 do
    match Trends.append ~history line with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  done;
  (match Trends.check_history history with
  | Ok n -> Alcotest.(check int) "every line kept" 3 n
  | Error msg -> Alcotest.fail msg);
  (match Json.read_file history with
  | Error msg -> Alcotest.fail msg
  | Ok text ->
    String.split_on_char '\n' text
    |> List.filter (( <> ) "")
    |> List.iter (fun l ->
           Alcotest.(check (result string string))
             "line parses back" (Ok (Json.to_string line))
             (Result.map Json.to_string (Json.parse l))));
  Sys.remove history

let test_history_corrupt_line () =
  let history = Filename.temp_file "tussle-history" ".jsonl" in
  let good =
    Json.to_string ~minify:true
      (Trends.history_line (Report.to_json (sample_report ())) (sample_exps ()))
  in
  let check label lines expected =
    let oc = open_out history in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    Alcotest.(check (result int string)) label expected
      (Trends.check_history history)
  in
  check "bad json on line 2" [ good; "not json"; good ]
    (Error (history ^ ":2: JSON parse error at byte 0: expected null"));
  check "untagged line 3" [ good; good; "{}" ]
    (Error (history ^ ":3: missing bench-history schema tag"));
  check "blank lines skipped" [ good; ""; good ] (Ok 2);
  Sys.remove history

(* ---------- determinism guard ---------- *)

let fast id =
  match Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "missing %s" id

let test_telemetry_does_not_perturb () =
  obs_off ();
  let batch =
    List.map fast [ "E4"; "E6"; "E7"; "E8"; "E19"; "E23"; "E25"; "E26" ]
  in
  let render outcomes =
    String.concat "\n" (List.map (fun o -> o.Experiment.output) outcomes)
  in
  let baseline = render (Registry.run_list ~domains:1 batch) in
  Metrics.enable ();
  Trace.enable ();
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "instrumented output identical (%d domains)" domains)
        baseline
        (render (Registry.run_list ~domains batch)))
    [ 1; 2; 4 ];
  (* and the instrumented run did actually record telemetry *)
  (match List.assoc_opt "experiments.run" (Metrics.snapshot ()) with
  | Some (Metrics.Count n) ->
    Alcotest.(check int) "experiments counted" (3 * List.length batch) n
  | _ -> Alcotest.fail "experiments.run counter missing");
  Alcotest.(check bool) "spans recorded" true (Trace.events () <> []);
  (match Pool.last_stats () with
  | Some s ->
    Alcotest.(check int) "pool tasks accounted" (List.length batch)
      (Array.fold_left ( + ) 0 s.Pool.tasks)
  | None -> Alcotest.fail "pool stats missing");
  obs_off ()

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "counter merge across domains" `Quick
            test_counter_merge;
          Alcotest.test_case "gauge merge and reset" `Quick
            test_gauge_merge_and_reset;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "ring overwrite" `Quick test_span_ring_overwrite;
          Alcotest.test_case "chrome trace json" `Quick test_chrome_trace_json;
        ] );
      ( "flight",
        [
          Alcotest.test_case "disabled is inert" `Quick
            test_flight_disabled_inert;
          Alcotest.test_case "ring overwrite keeps newest" `Quick
            test_flight_ring_overwrite;
          Alcotest.test_case "flow ids and reset" `Quick test_flight_flow_ids;
        ] );
      ( "report",
        [
          Alcotest.test_case "emitted json validates" `Quick
            test_report_json_valid;
          Alcotest.test_case "validate rejects corruption" `Quick
            test_report_validate_rejects;
          Alcotest.test_case "summary and imbalance" `Quick
            test_report_summary_and_imbalance;
        ] );
      ( "trends",
        [
          Alcotest.test_case "planted regression fails the gate" `Quick
            test_gate_planted_regression;
          Alcotest.test_case "zero baseline gates nothing" `Quick
            test_gate_zero_baseline;
          Alcotest.test_case "missing id is an error" `Quick
            test_gate_missing_id;
          Alcotest.test_case "history round-trip" `Quick test_history_round_trip;
          Alcotest.test_case "corrupt history line" `Quick
            test_history_corrupt_line;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "telemetry never perturbs battery" `Slow
            test_telemetry_does_not_perturb;
        ] );
    ]
