(* Tests for the domain-pool experiment runner: Pool.map ordering and
   fault behaviour, the process domain budget and inline nested maps,
   registry fault isolation, and byte-identical sequential vs. parallel
   batteries. *)

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
  let d = Pool.domains () in
  Alcotest.(check bool) "within [1,8]" true (d >= 1 && d <= 8);
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Pool.set_domains: domains must be >= 1") (fun () ->
      Pool.set_domains 0);
  Alcotest.(check int) "rejected value leaves the budget" d (Pool.domains ());
  Budget.with_domains 3 (fun () ->
      Alcotest.(check int) "budget set" 3 (Pool.domains ()));
  Alcotest.(check int) "budget restored" d (Pool.domains ())

let test_domains_of_string () =
  (* The flag-value parsers every tussle subcommand shares: garbage
     must produce an error (the subcommand prints it and exits 2),
     never a silent fall-through to a default.  Each rejection below
     is a value scripts/ci.sh feeds, with the exact text the CLI
     prints. *)
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
  (* all items still run; the earliest failing input's exception wins,
     with one worker as with several *)
  List.iter
    (fun domains ->
      let ran = Atomic.make 0 in
      let f x =
        Atomic.incr ran;
        if x mod 10 = 0 then failwith (string_of_int x) else x
      in
      Alcotest.check_raises
        (Printf.sprintf "earliest failure wins (%d domains)" domains)
        (Failure "10") (fun () ->
          ignore (Pool.map ~domains f (List.init 35 (fun i -> i + 1))));
      Alcotest.(check int)
        (Printf.sprintf "every item ran (%d domains)" domains)
        35 (Atomic.get ran))
    [ 1; 4 ]

(* ---------- nested maps run inline ---------- *)

(* A nested map whose items all ran on the calling domain.  Each item
   sleeps, so a map that spawned helpers would hand them some items. *)
let nested_on_self ?domains () =
  let self = Domain.self () in
  List.for_all
    (fun d -> d = self)
    (Pool.map ?domains
       (fun _ ->
         Unix.sleepf 0.001;
         Domain.self ())
       (List.init 16 Fun.id))

(* Whether a top-level two-item map runs on two domains at once: item 0
   waits (at most 5 s) for item 1 to start, which only another domain
   can do while item 0 waits. *)
let fans_out () =
  let started = Atomic.make false in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    Atomic.get started
    || Unix.gettimeofday () < deadline
       && begin
            Domain.cpu_relax ();
            wait ()
          end
  in
  match
    Pool.map ~domains:2
      (fun i ->
        if i = 1 then begin
          Atomic.set started true;
          true
        end
        else wait ())
      [ 0; 1 ]
  with
  | [ saw; _ ] -> saw
  | _ -> false

let test_nested_inline () =
  Alcotest.(check (list bool)) "budget 1: nested map on the outer domain"
    [ true; true ]
    (Budget.with_domains 1 (fun () ->
         Pool.map (fun _ -> nested_on_self ()) [ 1; 2 ]));
  Budget.with_domains 4 (fun () ->
      Alcotest.(check (list bool)) "inside a ~domains:2 worker"
        [ true; true; true ]
        (Pool.map ~domains:2 (fun _ -> nested_on_self ()) [ 1; 2; 3 ]);
      Alcotest.(check (list bool)) "even with an explicit cap" [ true; true ]
        (Pool.map ~domains:1 (fun _ -> nested_on_self ~domains:4 ()) [ 1; 2 ]);
      (* the watchdog runs the experiment in a child domain spawned from
         the worker; the child inherits the inline flag *)
      let watched =
        {
          Experiment.id = "EN";
          title = "nested map under the watchdog";
          paper_claim = "";
          run = (fun () -> ("", nested_on_self ()));
          sweep = None;
        }
      in
      match
        Registry.run_list ~domains:2 ~timeout_s:30.0 [ watched; watched ]
      with
      | [ a; b ] ->
        Alcotest.(check bool) "inside a watchdog child" true
          (Experiment.held a && Experiment.held b)
      | _ -> Alcotest.fail "expected two outcomes");
  Alcotest.(check bool) "a top-level map after nesting still fans out" true
    (fans_out ());
  (try ignore (Pool.map ~domains:2 (fun _ -> failwith "boom") [ 1; 2 ])
   with Failure _ -> ());
  Alcotest.(check bool) "and after a raising map" true (fans_out ())

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
  (* cheap subset of the battery; `tussle experiments` runs all 30 *)
  let batch =
    List.map fast [ "E4"; "E6"; "E7"; "E8"; "E19"; "E23"; "E25"; "E26" ]
  in
  let render outcomes =
    String.concat "\n" (List.map (fun o -> o.Experiment.output) outcomes)
  in
  let sequential = render (Registry.run_list ~domains:1 batch) in
  let parallel = render (Registry.run_list ~domains:4 batch) in
  Alcotest.(check string) "byte-identical output" sequential parallel

let test_nested_counters_repeat () =
  (* E28-E30 each map over their own sweep; run inline, every engine
     event lands on the experiment's domain, so the counts repeat *)
  Tussle_obs.Metrics.enable ();
  Fun.protect ~finally:Tussle_obs.Metrics.disable @@ fun () ->
  let events () =
    List.map
      (fun o -> (o.Experiment.exp_id, o.Experiment.events_executed))
      (Registry.run_list (List.map fast [ "E28"; "E29"; "E30" ]))
  in
  let first = events () in
  Alcotest.(check bool) "events counted" true
    (List.for_all (fun (_, n) -> n > 0) first);
  Alcotest.(check (list (pair string int))) "events_executed repeat" first
    (events ())

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
          Alcotest.test_case "nested maps run inline" `Quick test_nested_inline;
        ] );
      ( "registry",
        [
          Alcotest.test_case "failed experiment isolated" `Slow
            test_failed_isolated;
          Alcotest.test_case "seq/parallel byte-identical" `Slow
            test_parallel_battery_identical;
          Alcotest.test_case "E28-E30 counters repeat" `Slow
            test_nested_counters_repeat;
        ] );
    ]
