(* Tests for the domain-pool experiment runner: Pool.map ordering and
   fault behaviour, registry fault isolation, and byte-identical
   sequential vs. parallel batteries. *)

module Pool = Tussle_prelude.Pool
module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec search i =
    i + m <= n && (String.sub haystack i m = needle || search (i + 1))
  in
  search 0

(* ---------- Pool ---------- *)

let test_pool_order () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved with %d domains" domains)
        expected
        (Pool.map ~domains (fun x -> x * x) xs))
    [ 1; 2; 4; 7 ]

let test_pool_edge_cases () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Pool.map ~domains:4 succ [ 1 ]);
  Alcotest.(check (list int)) "more domains than items" [ 2; 3 ]
    (Pool.map ~domains:16 succ [ 1; 2 ]);
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Pool.map: domains must be >= 1") (fun () ->
      ignore (Pool.map ~domains:0 succ [ 1 ]))

let test_pool_default_domains () =
  let d = Pool.default_domains () in
  Alcotest.(check bool) "within [1,8]" true (d >= 1 && d <= 8)

let test_domains_of_string () =
  (* The flag-value parsers bench/main.ml and every tussle subcommand
     share: garbage must produce an error (the entry points print it
     and exit 2), never a silent fall-through to a default.  Each
     rejection below is a value scripts/ci.sh feeds, with the exact
     text the entry points print. *)
  let ok s expected =
    match Pool.domains_of_string s with
    | Ok d -> Alcotest.(check int) (Printf.sprintf "parse %S" s) expected d
    | Error msg -> Alcotest.failf "rejected %S: %s" s msg
  in
  let rejected s =
    match Pool.domains_of_string s with
    | Error _ -> ()
    | Ok d -> Alcotest.failf "accepted %S as %d" s d
  in
  ok "1" 1;
  ok "4" 4;
  ok " 8 " 8;
  List.iter rejected [ "nope"; ""; "0"; "-3"; "4.5"; "2x"; "⑂" ];
  let rejects parse cases =
    List.iter
      (fun (s, msg) ->
        Alcotest.(check (result reject string))
          (Printf.sprintf "reject %S" s) (Error msg) (parse s))
      cases
  in
  rejects Pool.domains_of_string
    [
      ("nope", {|invalid domain count "nope" (expected an integer)|});
      ("0", "domain count must be >= 1 (got 0)");
      ("-3", "domain count must be >= 1 (got -3)");
    ];
  let timeout = {|(expected a positive number of seconds)|} in
  rejects Pool.seconds_of_string
    [
      ("nope", {|invalid timeout "nope" |} ^ timeout);
      ("0", {|invalid timeout "0" |} ^ timeout);
      ("-1", {|invalid timeout "-1" |} ^ timeout);
    ];
  rejects (Pool.seed_of_string ~what:"fault seed")
    [
      ("nope", {|invalid fault seed "nope" (expected an integer)|});
      ("1.5", {|invalid fault seed "1.5" (expected an integer)|});
    ];
  rejects (Pool.seed_of_string ~what:"chaos seed")
    [
      ("nope", {|invalid chaos seed "nope" (expected an integer)|});
      ("1.5", {|invalid chaos seed "1.5" (expected an integer)|});
    ];
  rejects (Pool.seed_of_string ~what:"seed")
    [
      ("nope", {|invalid seed "nope" (expected an integer)|});
      ("1.5", {|invalid seed "1.5" (expected an integer)|});
    ];
  rejects (Pool.int_at_least ~what:"run count" 1)
    [
      ("nope", {|invalid run count "nope" (expected an integer >= 1)|});
      ("0", {|invalid run count "0" (expected an integer >= 1)|});
      ("-3", {|invalid run count "-3" (expected an integer >= 1)|});
    ];
  rejects (Pool.int_at_least ~what:"run count" 2)
    [
      ("nope", {|invalid run count "nope" (expected an integer >= 2)|});
      ("1", {|invalid run count "1" (expected an integer >= 2)|});
      ("-3", {|invalid run count "-3" (expected an integer >= 2)|});
    ];
  rejects (Pool.int_at_least ~what:"budget" 1)
    [
      ("nope", {|invalid budget "nope" (expected an integer >= 1)|});
      ("0", {|invalid budget "0" (expected an integer >= 1)|});
      ("-3", {|invalid budget "-3" (expected an integer >= 1)|});
    ];
  let level = {|(expected a number strictly between 0 and 1)|} in
  rejects Pool.probability_of_string
    [
      ("nope", {|invalid significance level "nope" |} ^ level);
      ("0", {|invalid significance level "0" |} ^ level);
      ("1", {|invalid significance level "1" |} ^ level);
      ("2", {|invalid significance level "2" |} ^ level);
    ];
  rejects
    (Pool.backend_of_string [ "mutate"; "exhaust" ])
    [ ("bogus", {|invalid backend "bogus" (expected mutate or exhaust)|}) ];
  Alcotest.(check (result int string)) "accepted values are trimmed" (Ok 7)
    (Pool.seed_of_string ~what:"seed" " 7 ");
  Alcotest.(check (result (float 0.0) string)) "alpha" (Ok 0.01)
    (Pool.probability_of_string "0.01");
  Alcotest.(check (result string string)) "backend" (Ok "exhaust")
    (Pool.backend_of_string [ "mutate"; "exhaust" ] " exhaust ");
  (* [flag] names the flag; --seq pins one domain before --domains is read *)
  Alcotest.(check (result (option int) string)) "absent flag" (Ok None)
    (Pool.flag "--budget" (Pool.int_at_least ~what:"budget" 1) None);
  Alcotest.(check (result (option int) string)) "flag error"
    (Error {|--budget: invalid budget "0" (expected an integer >= 1)|})
    (Pool.flag "--budget" (Pool.int_at_least ~what:"budget" 1) (Some "0"));
  Alcotest.(check (result (option int) string)) "--seq wins" (Ok (Some 1))
    (Pool.domains_flag ~seq:true (Some "nope"))

let test_pool_exception_first () =
  (* all items still run; the earliest failing input's exception wins *)
  let f x = if x mod 10 = 0 then failwith (string_of_int x) else x in
  Alcotest.check_raises "earliest failure wins" (Failure "10") (fun () ->
      ignore (Pool.map ~domains:4 f (List.init 35 (fun i -> i + 1))))

(* ---------- registry fault isolation ---------- *)

let boom =
  {
    Experiment.id = "EX";
    title = "deliberately raising (fault-isolation test)";
    paper_claim = "a broken experiment must not abort the battery";
    run = (fun () -> failwith "kaboom");
    sweep = None;
  }

let fast id =
  match Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "missing %s" id

let test_failed_isolated () =
  let batch = [ fast "E4"; boom; fast "E23" ] in
  List.iter
    (fun domains ->
      match Registry.run_list ~domains batch with
      | [ a; b; c ] ->
        Alcotest.(check bool) "first held" true (Experiment.held a);
        Alcotest.(check bool) "third held" true (Experiment.held c);
        (match b.Experiment.status with
        | Experiment.Failed msg ->
          Alcotest.(check bool) "exception message kept" true
            (contains msg "kaboom")
        | Experiment.Held | Experiment.Violated ->
          Alcotest.fail "expected Failed status");
        Alcotest.(check bool) "failure rendered" true
          (contains b.Experiment.output "FAILED (uncaught:")
      | _ -> Alcotest.fail "expected three outcomes")
    [ 1; 3 ]

(* ---------- determinism across domain counts ---------- *)

let test_parallel_battery_identical () =
  (* cheap subset of the battery; bench/main.ml exercises all 28 *)
  let batch =
    List.map fast [ "E4"; "E6"; "E7"; "E8"; "E19"; "E23"; "E25"; "E26" ]
  in
  let render outcomes =
    String.concat "\n" (List.map (fun o -> o.Experiment.output) outcomes)
  in
  let sequential = render (Registry.run_list ~domains:1 batch) in
  let parallel = render (Registry.run_list ~domains:4 batch) in
  Alcotest.(check string) "byte-identical output" sequential parallel

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick test_pool_order;
          Alcotest.test_case "edge cases" `Quick test_pool_edge_cases;
          Alcotest.test_case "default domains" `Quick test_pool_default_domains;
          Alcotest.test_case "domains flag parsing" `Quick
            test_domains_of_string;
          Alcotest.test_case "first exception wins" `Quick
            test_pool_exception_first;
        ] );
      ( "registry",
        [
          Alcotest.test_case "failed experiment isolated" `Slow
            test_failed_isolated;
          Alcotest.test_case "seq/parallel byte-identical" `Slow
            test_parallel_battery_identical;
        ] );
    ]
