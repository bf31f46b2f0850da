(* Tests for tussle.search: mutation-operator validity (qcheck), the
   planted violation that a same-budget random sweep misses but the
   coverage-guided mutator finds (and shrinks, and persists), the
   bounded-exhaustive backend's completeness + certification on a toy
   grammar, byte-determinism across --domains and repeats, the
   search-report JSON round-trip with tamper detection by the one
   artifact validator ([Artifact.check], which [tussle report] and
   [tussle search] run), and corpus hygiene (dedup on persist,
   unknown-scenario rejection). *)

module Rng = Tussle_prelude.Rng
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Topology = Tussle_netsim.Topology
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Invariant = Tussle_chaos.Invariant
module Scenario = Tussle_chaos.Scenario
module Sweep = Tussle_chaos.Sweep
module Corpus = Tussle_chaos.Corpus
module Artifact = Tussle_chaos.Artifact
module Signature = Tussle_chaos.Signature
module Backend = Tussle_search.Backend
module Mutate = Tussle_search.Mutate
module Exhaust = Tussle_search.Exhaust
module Driver = Tussle_search.Driver
module Search_report = Tussle_obs.Search_report
module Json = Tussle_obs.Json

let fresh_corpus_dir () =
  let stamp = Filename.temp_file "tussle-search" "" in
  Sys.remove stamp;
  stamp ^ ".corpus"

(* [Artifact.check]'s message, if it rejects [r] as a search report. *)
let rejection r =
  match Artifact.check (Search_report.to_json r) with
  | Ok _ -> None
  | Error (kind, msg) -> Some (kind ^ ": " ^ msg)

(* ---------- mutation-operator validity (property) ---------- *)

let links = [ (0, 1); (1, 2); (2, 3) ]
let horizon = 10.0

let mutation_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* episodes = int_range 0 12 in
    let* mutations = int_range 1 10 in
    return (seed, episodes, mutations))

let prop_mutants_valid =
  QCheck2.Test.make ~name:"every mutant passes Plan.validate" ~count:200
    mutation_gen (fun (seed, episodes, mutations) ->
      let rng = Rng.create seed in
      let plan = ref (Plan.random rng ~links ~horizon ~episodes) in
      let cap = Plan.mutation_horizon_factor *. horizon in
      for _ = 1 to mutations do
        plan := Plan.mutate rng ~links ~horizon !plan;
        (* must never raise, however many operators compound *)
        Plan.validate !plan
      done;
      (* windows never creep past the mutation cap, so searches cannot
         drift toward the chaos guard horizon *)
      List.for_all
        (fun spec ->
          match spec with
          | Plan.Link_down { w; _ }
          | Plan.Link_loss { w; _ }
          | Plan.Link_corrupt { w; _ }
          | Plan.Latency_spike { w; _ }
          | Plan.Node_crash { w; _ }
          | Plan.Middlebox_break { w; _ }
          | Plan.Gray_loss { w; _ }
          | Plan.Unidirectional_down { w; _ }
          | Plan.Link_flap { w; _ }
          | Plan.Blackhole { w; _ } ->
            w.Plan.from_s >= 0.0 && w.Plan.until_s <= cap)
        !plan)

let prop_mutate_deterministic =
  QCheck2.Test.make ~name:"mutation is a pure function of the rng" ~count:100
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let mutate_once s =
        let rng = Rng.create s in
        let plan = Plan.random rng ~links ~horizon ~episodes:3 in
        Plan.to_string (Plan.mutate rng ~links ~horizon plan)
      in
      mutate_once seed = mutate_once seed)

(* ---------- the planted violation ---------- *)

(* A deliberately buggy scenario: the engine stops exactly at the
   nominal horizon.  [Plan.random] windows always close strictly
   before the horizon, so every random plan drains cleanly — but a
   mutated window widened or shifted past the horizon leaves its
   restore event queued, a genuine engine-drained violation that only
   the adversarial search can reach. *)
let planted : Scenario.t =
  let run ~seed ~plan =
    let net =
      Net.create
        (Topology.to_links (Topology.line 2))
        (fun ~node:_ ~target:_ _ -> None)
    in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    Inject.install ~seed ~plan engine net;
    Engine.run ~until:4.0 engine;
    Invariant.observe ~clock_start engine net
  in
  { Scenario.name = "planted-horizon-stop"; links = [ (0, 1) ];
    horizon = 4.0; run }

(* Same scenario, but the engine runs far past every window the
   exhaust grammar (or the mutation cap) can produce: nothing in the
   box violates, so the box is certifiable. *)
let planted_clean : Scenario.t =
  let run ~seed ~plan =
    let net =
      Net.create
        (Topology.to_links (Topology.line 2))
        (fun ~node:_ ~target:_ _ -> None)
    in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    Inject.install ~seed ~plan engine net;
    Engine.run ~until:24.0 engine;
    Invariant.observe ~clock_start engine net
  in
  { Scenario.name = "planted-clean"; links = [ (0, 1) ]; horizon = 4.0; run }

let test_random_sweep_misses_planted () =
  (* a 200-plan random sweep, derived exactly like the chaos sweep
     derives its candidates, never trips the planted bug *)
  for i = 0 to 199 do
    let rng = Rng.create (Rng.seed_at ~seed:42 i) in
    let episodes = 1 + Rng.int rng 4 in
    let plan =
      Plan.random rng ~links:planted.Scenario.links
        ~horizon:planted.Scenario.horizon ~episodes
    in
    let seed = Rng.int rng 1_000_000 in
    let violations = Invariant.check (planted.Scenario.run ~seed ~plan) in
    if violations <> [] then
      Alcotest.failf "random plan %d tripped the planted bug: %s" i
        (String.concat "; " (List.map Invariant.violation_string violations))
  done

let test_mutate_finds_planted () =
  let dir = fresh_corpus_dir () in
  let o =
    Mutate.search ~corpus_dir:dir ~scenarios:[ planted ] ~seed:42 ~budget:200 ()
  in
  Alcotest.(check string) "backend name" "mutate" o.Backend.backend;
  Alcotest.(check int) "whole budget spent" 200 o.Backend.runs;
  Alcotest.(check bool) "found the planted violation" true
    (o.Backend.found <> []);
  Alcotest.(check bool) "open-ended searches never certify" false
    o.Backend.certified;
  List.iter
    (fun (f : Sweep.found) ->
      let fails = Sweep.still_fails planted ~seed:f.Sweep.seed in
      Alcotest.(check bool) "minimal reproducer still fails" true
        (fails f.Sweep.minimal);
      (* 1-minimal: dropping any single episode makes it pass *)
      List.iteri
        (fun i _ ->
          let without =
            List.filteri (fun j _ -> j <> i) f.Sweep.minimal
          in
          Alcotest.(check bool) "dropping any episode passes" false
            (fails without))
        f.Sweep.minimal;
      match f.Sweep.file with
      | None -> Alcotest.fail "finding was not persisted"
      | Some path -> (
        Alcotest.(check bool) "corpus file exists" true (Sys.file_exists path);
        match Corpus.load path with
        | Error e -> Alcotest.fail e
        | Ok e ->
          Alcotest.(check string) "corpus names the scenario"
            planted.Scenario.name e.Corpus.scenario;
          Alcotest.(check bool) "corpus holds the minimal plan" true
            (Plan.to_string e.Corpus.plan = Plan.to_string f.Sweep.minimal)))
    o.Backend.found;
  (* the assembled report validates, corpus files included *)
  let report =
    Search_report.make ~label:"planted" ~corpus_dir:dir
      ~backend:o.Backend.backend ~search_seed:42 ~budget:200
      ~runs:o.Backend.runs ~seeded:o.Backend.seeded ~space:o.Backend.space
      ~certified:o.Backend.certified ~frontier:o.Backend.frontier
      ~corpus_added:
        (List.length (List.filter (fun f -> f.Sweep.fresh) o.Backend.found))
      (List.map Driver.finding_of_found o.Backend.found)
  in
  Alcotest.(check (option string)) "report valid" None (rejection report)

(* ---------- gray failure vs hello-only healing ---------- *)

(* The chaos gray-blind setup as a search target: a ring healed by
   hello-only detection, claiming a covert-drop budget.  Legacy faults
   are overt, so only the extended grammar — a Gray_loss episode
   parked on the primary path — can bust the budget.  The mutate
   backend must find it, shrink it to the gray episode alone, and
   persist the reproducer. *)
let gray_blind : Scenario.t =
  let module Traffic = Tussle_netsim.Traffic in
  let module Selfheal = Tussle_routing.Selfheal in
  let edge = { Tussle_netsim.Topology.latency = 0.005; bandwidth_bps = 1e7 } in
  let run ~seed ~plan =
    let net =
      Net.create
        (Topology.to_links (Topology.ring ~edge 6))
        (fun ~node:_ ~target:_ _ -> None)
    in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    let heal = Selfheal.attach ~until:12.0 engine net in
    Inject.install ~seed ~plan engine net;
    let gen = Traffic.create (Rng.create (seed + 1)) in
    for k = 0 to 79 do
      let at = 0.2 +. (0.1 *. float_of_int k) in
      ignore
        (Engine.schedule engine at (fun engine ->
             Net.inject net engine
               (Traffic.next_packet gen ~src:0 ~dst:2
                  ~created:(Engine.now engine) ())))
    done;
    Engine.run ~until:600.0 engine;
    Invariant.observe ~reconvergences:(Selfheal.reconvergences heal)
      ~covert_budget:16
      ~fault_transitions:(Plan.transitions plan) ~clock_start engine net
  in
  { Scenario.name = "gray-blind-search";
    links = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ];
    horizon = 10.0; run }

let test_mutate_finds_gray_failure () =
  let dir = fresh_corpus_dir () in
  let o =
    Mutate.search ~corpus_dir:dir ~scenarios:[ gray_blind ] ~seed:7
      ~budget:300 ()
  in
  let gray_findings =
    List.filter
      (fun (f : Sweep.found) ->
        List.exists
          (fun v -> v.Invariant.invariant = "no-silent-blackhole")
          f.Sweep.violations)
      o.Backend.found
  in
  Alcotest.(check bool) "found a covert-budget violation" true
    (gray_findings <> []);
  List.iter
    (fun (f : Sweep.found) ->
      (* the 1-minimal reproducer needs covert grammar: an overt
         episode may ride along (steering traffic onto the grayed
         path), but no legacy-only plan can bust the budget *)
      Alcotest.(check bool) "minimal plan needs covert grammar" true
        (List.exists
           (function
             | Plan.Gray_loss _ | Plan.Blackhole _ -> true
             | _ -> false)
           f.Sweep.minimal);
      Alcotest.(check bool) "minimal reproducer still fails" true
        (Sweep.still_fails gray_blind ~seed:f.Sweep.seed f.Sweep.minimal);
      match f.Sweep.file with
      | None -> Alcotest.fail "gray finding was not persisted"
      | Some path -> (
        match Corpus.load path with
        | Error e -> Alcotest.fail e
        | Ok e ->
          Alcotest.(check bool) "corpus holds the minimal plan" true
            (e.Corpus.plan = f.Sweep.minimal)))
    gray_findings

(* ---------- bounded-exhaustive completeness ---------- *)

let test_exhaust_complete_on_toy_box () =
  (* 1 link x {down, loss, gray, flap, uni x2} x 4 windows = 24 link
     atoms, plus 2 nodes x blackhole x 4 windows = 8 node atoms; plans
     = empty + singles + unordered pairs = 1 + 32 + 528 = 561 *)
  let o = Exhaust.search ~scenarios:[ planted ] ~seed:5 ~budget:600 () in
  Alcotest.(check int) "box fully enumerated" 561 o.Backend.runs;
  Alcotest.(check int) "space matches" 561 o.Backend.space;
  Alcotest.(check bool) "violations forbid certification" false
    o.Backend.certified;
  (* exactly the atoms whose window [h/2, 1.5h) outlives the run:
     every kind over [2, 6) *)
  let minimals =
    List.sort_uniq compare
      (List.map (fun f -> Plan.to_string f.Sweep.minimal) o.Backend.found)
  in
  Alcotest.(check (list string)) "exactly the planted reproducers"
    [
      "link 0-1 down [2, 6)";
      "link 0-1 flap period=1s duty=0.5 [2, 6)";
      "link 0-1 gray p=0.5 [2, 6)";
      "link 0-1 loss p=0.2 [2, 6)";
      "link 0->1 down [2, 6)";
      "link 1->0 down [2, 6)";
      "node 0 blackhole [2, 6)";
      "node 1 blackhole [2, 6)";
    ]
    minimals

let test_exhaust_certifies_clean_box () =
  let o = Exhaust.search ~scenarios:[ planted_clean ] ~seed:5 ~budget:600 () in
  Alcotest.(check int) "box fully enumerated" 561 o.Backend.runs;
  Alcotest.(check bool) "no findings" true (o.Backend.found = []);
  Alcotest.(check bool) "clean exhausted box certifies" true
    o.Backend.certified;
  (* an under-budget enumeration must not certify *)
  let partial =
    Exhaust.search ~scenarios:[ planted_clean ] ~seed:5 ~budget:10 ()
  in
  Alcotest.(check int) "budget caps the enumeration" 10 partial.Backend.runs;
  Alcotest.(check bool) "partial box never certifies" false
    partial.Backend.certified

(* ---------- byte-determinism across --domains and repeats ---------- *)

let report_string (r : Search_report.t) =
  Json.to_string (Search_report.to_json r) ^ "\n" ^ Search_report.summary r

let run_driver ?(domains = Tussle_prelude.Pool.domains ()) backend =
  match
    Budget.with_domains domains (Driver.run ~backend ~seed:11 ~budget:48)
  with
  | Error e -> Alcotest.fail e
  | Ok (report, _) -> report

let test_search_deterministic () =
  List.iter
    (fun backend ->
      let base = report_string (run_driver ~domains:1 backend) in
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "%s identical at --domains %d" backend domains)
            base
            (report_string (run_driver ~domains backend)))
        [ 2; 4 ];
      Alcotest.(check string)
        (Printf.sprintf "%s identical on repeat" backend)
        base
        (report_string (run_driver ~domains:1 backend));
      (* the real scenarios run to a guard horizon far past the
         mutation cap, so neither backend finds violations in them *)
      let r = run_driver ~domains:2 backend in
      Alcotest.(check int)
        (Printf.sprintf "%s clean on real scenarios" backend)
        0
        (List.length r.Search_report.findings);
      Alcotest.(check (option string))
        (Printf.sprintf "%s report valid" backend)
        None (rejection r))
    Driver.backend_names;
  match Driver.run ~backend:"bogus" ~seed:11 ~budget:48 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend must be an error"

(* ---------- report round-trip + tampering ---------- *)

let test_report_roundtrip_and_tampering () =
  let r = run_driver "mutate" in
  (match Search_report.of_json (Search_report.to_json r) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok r' ->
    Alcotest.(check bool) "of_json (to_json r) = r" true (r = r'));
  (* structural tampering is caught by validate *)
  let tamper name value =
    match Search_report.to_json r with
    | Json.Obj fields ->
      Json.Obj
        (List.map (fun (k, v) -> if k = name then (k, value) else (k, v)) fields)
    | _ -> Alcotest.fail "report must serialize as an object"
  in
  (match Search_report.validate (tamper "schema" (Json.Str "bogus/9")) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong schema tag must not validate");
  (match Search_report.validate (tamper "runs" (Json.Str "many")) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "mistyped field must not validate");
  (match Search_report.validate (tamper "summary" (Json.Obj [])) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "gutted summary must not validate");
  (* semantic tampering is caught by the same validator *)
  let rejects what msg r =
    Alcotest.(check (option string)) what (Some ("search report: " ^ msg))
      (rejection r)
  in
  Alcotest.(check (option string)) "honest report passes" None (rejection r);
  Alcotest.(check int) "budget" 48 r.Search_report.budget;
  rejects "short-changed budget"
    "mutate backend must spend its whole budget: 47 of 48"
    { r with Search_report.runs = 47 };
  rejects "runs over budget" "1000 runs for budget 48"
    { r with Search_report.runs = 1000 };
  rejects "shrinking frontier" "coverage frontier shrank: 5 -> 3"
    { r with Search_report.frontier = [ 5; 3 ] };
  rejects "reversed frontier" "coverage frontier shrank: 18 -> 4"
    { r with Search_report.runs = 1000; budget = 1000; frontier = [ 18; 4 ] };
  rejects "phantom corpus additions"
    "corpus_added=1 but 0 findings carry a corpus file"
    { r with Search_report.corpus_added = 1 };
  (* a finding whose corpus file does not match its plan is flagged *)
  let forged =
    {
      Search_report.scenario = planted.Scenario.name;
      seed = 7;
      found_episodes = 3;
      minimal_plan = "link 0-1 down [2, 6)";
      invariants = [ "engine-drained" ];
      corpus_file = "chaos/corpus/planted-horizon-stop-7-00000000.plan";
    }
  in
  rejects "forged corpus hash"
    "planted-horizon-stop: corpus file \"planted-horizon-stop-7-00000000.plan\" \
     is not named for its scenario and minimal plan"
    { r with Search_report.findings = [ forged ] }

(* ---------- corpus hygiene ---------- *)

let test_corpus_dedupe () =
  let dir = fresh_corpus_dir () in
  let plan = [ Plan.Link_down { u = 0; v = 1; w = Plan.window 0.2 2.5 } ] in
  let entry = { Corpus.scenario = "planted-horizon-stop"; seed = 7; plan } in
  let path = Corpus.save ~dir entry in
  Alcotest.(check (option string)) "duplicate detected" (Some path)
    (Corpus.find_duplicate ~dir entry);
  (* same plan under a different seed is still the same reproducer *)
  let path2 = Corpus.save ~dir { entry with Corpus.seed = 99 } in
  Alcotest.(check string) "seed does not defeat dedup" path path2;
  Alcotest.(check int) "still one file" 1
    (List.length (Result.get_ok (Corpus.load_dir dir)));
  (* a genuinely different plan gets its own file *)
  let other =
    { entry with Corpus.plan = [ Plan.Link_down { u = 0; v = 1; w = Plan.window 0.1 1.0 } ] }
  in
  Alcotest.(check (option string)) "distinct plan is no duplicate" None
    (Corpus.find_duplicate ~dir other);
  let path3 = Corpus.save ~dir other in
  Alcotest.(check bool) "distinct plan, distinct file" true (path3 <> path);
  Alcotest.(check int) "two files" 2
    (List.length (Result.get_ok (Corpus.load_dir dir)))

let test_corpus_unknown_scenario_rejected () =
  let dir = fresh_corpus_dir () in
  let entry =
    {
      Corpus.scenario = "no-such-scenario";
      seed = 3;
      plan = [ Plan.Link_down { u = 0; v = 1; w = Plan.window 0.1 1.0 } ];
    }
  in
  let path = Corpus.save ~dir entry in
  (* the entry loads (tests persist plans for private scenarios); one
     check, Scenario.bind, rejects it when it is run *)
  let loaded =
    match Corpus.load path with Ok e -> e | Error e -> Alcotest.fail e
  in
  Alcotest.(check (result reject string)) "replay rejects it"
    (Error {|unknown scenario "no-such-scenario"|})
    (Sweep.replay loaded);
  match Driver.run ~corpus_dir:dir ~backend:"mutate" ~seed:11 ~budget:8 () with
  | Error e -> Alcotest.fail e
  | Ok (_, o) ->
    Alcotest.(check int) "search skips it as a seed" (List.length Scenario.all)
      o.Backend.seeded

(* A finding's corpus file must be the name [Corpus.save] gives its
   scenario and minimal plan, under any seed, and hold that plan when
   it is on disk. *)
let test_corpus_files_checked () =
  let dir = fresh_corpus_dir () in
  let plan = [ Plan.Link_down { u = 0; v = 1; w = Plan.window 0.2 2.5 } ] in
  let entry = { Corpus.scenario = "planted-horizon-stop"; seed = 7; plan } in
  let path = Corpus.save ~dir entry in
  let finding corpus_file =
    {
      Search_report.scenario = entry.Corpus.scenario;
      seed = 99;
      found_episodes = 1;
      minimal_plan = Plan.to_string plan;
      invariants = [ "engine-drained" ];
      corpus_file;
    }
  in
  let check what expect file =
    Alcotest.(check (result unit string)) what expect
      (Corpus.check_findings [ finding file ])
  in
  let misnamed name =
    Error
      (Printf.sprintf
         "planted-horizon-stop: corpus file %S is not named for its scenario \
          and minimal plan"
         name)
  in
  check "saved under another seed" (Ok ()) path;
  check "not persisted" (Ok ()) "";
  let absent = Corpus.filename { entry with Corpus.seed = -3 } in
  check "named right, not on disk" (Ok ()) (Filename.concat dir absent);
  let bad_seed =
    let i = String.rindex absent '-' in
    "planted-horizon-stop-x7" ^ String.sub absent i (String.length absent - i)
  in
  check "seed not an integer" (misnamed bad_seed) (Filename.concat dir bad_seed);
  let oc = open_out path in
  output_string oc
    "scenario: planted-horizon-stop\nseed: 7\nlink 0-1 down [0.1, 1)\n";
  close_out oc;
  check "different plan on disk"
    (Error
       (Printf.sprintf
          "planted-horizon-stop: corpus file %S holds a different plan on disk"
          (Filename.basename path)))
    path

(* ---------- behavior signature ---------- *)

(* One label at two locations: the signature sums a label's drops over
   every link or node that produced them, then buckets the total.  Here
   link-down drops come from links 0-1 (3) and 2-3 (2), and blackholed
   ones from nodes 5 (3) and 7 (2): each label is one bucket of 5. *)
let test_signature_sums_labels_across_locations () =
  let line_forwarding ~node ~target _ =
    if target > node then Some (node + 1)
    else if target < node then Some (node - 1)
    else None
  in
  let net =
    Net.create (Topology.to_links (Topology.line 9)) line_forwarding
  in
  let engine = Engine.create () in
  Inject.install ~seed:3
    ~plan:
      [
        Plan.Link_down { u = 0; v = 1; w = Plan.always };
        Plan.Link_down { u = 2; v = 3; w = Plan.always };
        Plan.Blackhole { node = 5; w = Plan.always };
        Plan.Blackhole { node = 7; w = Plan.always };
      ]
    engine net;
  List.iteri
    (fun id (src, dst) ->
      ignore
        (Engine.schedule engine 0.5 (fun engine ->
             Net.inject net engine
               (Tussle_netsim.Packet.make ~id ~src ~dst ~created:0.5 ()))))
    [ (0, 2); (0, 2); (0, 2); (2, 4); (2, 4);
      (4, 6); (4, 6); (4, 6); (6, 8); (6, 8) ];
  Engine.run engine;
  let obs = Invariant.observe ~clock_start:0.0 engine net in
  Alcotest.(check int) "every packet dropped" 10 obs.Invariant.dropped;
  Alcotest.(check string) "one bucket per label"
    "drops[blackholed:4,link-down:4] xfer[0/0/0] heal:0 covert:4 hw:5 \
     inflight:0"
    (Signature.of_obs obs)

let () =
  Alcotest.run "search"
    [
      ( "mutation-operators",
        [
          QCheck_alcotest.to_alcotest prop_mutants_valid;
          QCheck_alcotest.to_alcotest prop_mutate_deterministic;
        ] );
      ( "planted-violation",
        [
          Alcotest.test_case "random sweep misses it" `Quick
            test_random_sweep_misses_planted;
          Alcotest.test_case "mutate backend finds + shrinks + persists"
            `Quick test_mutate_finds_planted;
          Alcotest.test_case "mutate finds the gray failure" `Slow
            test_mutate_finds_gray_failure;
        ] );
      ( "bounded-exhaustive",
        [
          Alcotest.test_case "complete on the toy box" `Quick
            test_exhaust_complete_on_toy_box;
          Alcotest.test_case "certifies a clean box" `Quick
            test_exhaust_certifies_clean_box;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "byte-identical across domains + repeats" `Slow
            test_search_deterministic;
        ] );
      ( "report",
        [
          Alcotest.test_case "round-trip + tampering" `Quick
            test_report_roundtrip_and_tampering;
        ] );
      ( "signature",
        [
          Alcotest.test_case "labels summed across locations" `Quick
            test_signature_sums_labels_across_locations;
        ] );
      ( "corpus-hygiene",
        [
          Alcotest.test_case "dedup on persist" `Quick test_corpus_dedupe;
          Alcotest.test_case "unknown scenario rejected" `Quick
            test_corpus_unknown_scenario_rejected;
          Alcotest.test_case "corpus files checked" `Quick
            test_corpus_files_checked;
        ] );
    ]
