(* Tests for tussle.chaos: the invariant registry, the seeded sweep
   (clean, domain-invariant, seed-sensitive), the delta-debugging
   shrinker on a deliberately planted violation, the replayable corpus,
   and the guard that no enumeration path ever picks up the watchdog
   hang probe. *)

module Rng = Tussle_prelude.Rng
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Topology = Tussle_netsim.Topology
module Traffic = Tussle_netsim.Traffic
module Selfheal = Tussle_routing.Selfheal
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Invariant = Tussle_chaos.Invariant
module Scenario = Tussle_chaos.Scenario
module Sweep = Tussle_chaos.Sweep
module Shrink = Tussle_chaos.Shrink
module Corpus = Tussle_chaos.Corpus
module Explain = Tussle_chaos.Explain
module Flight = Tussle_obs.Flight
module Obs_json = Tussle_obs.Json
module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry

(* ---------- the invariant registry on hand-built ledgers ---------- *)

let clean_obs =
  {
    Invariant.injected = 10;
    delivered = 7;
    dropped = 3;
    in_flight = 0;
    engine_pending = 0;
    clock_start = 0.0;
    clock_end = 5.0;
    losses = [ (Net.Link_down (1, 2), 2); (Net.No_route, 1) ];
    link_fault_drops = 2;
    link_corrupted = 0;
    transfers = [ Invariant.Completed; Invariant.Abandoned ];
    link_gray_drops = 0;
    engine_high_water = 4;
    reconvergences = 1;
    covert_budget = None;
    fault_transitions = None;
  }

let violated_names obs =
  List.map (fun v -> v.Invariant.invariant) (Invariant.check obs)

let test_invariants_on_ledgers () =
  Alcotest.(check (list string)) "clean ledger passes" [] (violated_names clean_obs);
  Alcotest.(check (list string)) "lost packet" [ "packet-conservation" ]
    (violated_names { clean_obs with Invariant.delivered = 6 });
  Alcotest.(check (list string)) "wedged engine" [ "engine-drained" ]
    (violated_names { clean_obs with Invariant.engine_pending = 3 });
  Alcotest.(check (list string)) "clock ran backwards" [ "monotone-clock" ]
    (violated_names { clean_obs with Invariant.clock_end = -1.0 });
  Alcotest.(check (list string)) "unattributed drop" [ "drop-accounting" ]
    (violated_names { clean_obs with Invariant.link_fault_drops = 5 });
  Alcotest.(check (list string)) "hung transfer" [ "no-hung-transfer" ]
    (violated_names
       { clean_obs with Invariant.transfers = [ Invariant.Active ] });
  (* the covert-drop ledger: link-counted gray drops must surface as
     attributed gray-loss outcomes ... *)
  Alcotest.(check (list string)) "unattributed gray drop"
    [ "no-silent-blackhole" ]
    (violated_names { clean_obs with Invariant.link_gray_drops = 2 });
  (* ... and a declared covert budget caps gray + blackholed damage *)
  let covert_obs =
    { clean_obs with
      Invariant.losses = [ (Net.Gray_loss (1, 2), 2); (Net.Blackholed 3, 1) ];
      link_gray_drops = 2;
      link_fault_drops = 0;
      covert_budget = Some 2 }
  in
  Alcotest.(check (list string)) "covert budget busted"
    [ "no-silent-blackhole" ]
    (violated_names covert_obs);
  Alcotest.(check (list string)) "covert budget honored" []
    (violated_names { covert_obs with Invariant.covert_budget = Some 3 });
  Alcotest.(check (list string)) "no claim, no check" []
    (violated_names { covert_obs with Invariant.covert_budget = None });
  (* a ttl death without any reconvergence means static tables looped *)
  let loop_obs =
    { clean_obs with
      Invariant.losses = [ (Net.Ttl_exceeded, 3) ];
      link_fault_drops = 0;
      reconvergences = 0 }
  in
  Alcotest.(check (list string)) "static forwarding loop"
    [ "no-forwarding-loop" ]
    (violated_names loop_obs);
  Alcotest.(check (list string)) "transient loop during healing is fine" []
    (violated_names { loop_obs with Invariant.reconvergences = 1 });
  (* reconvergence churn is bounded by the plan's transition count *)
  Alcotest.(check (list string)) "reconvergence churn"
    [ "damping-bounds-reconvergence" ]
    (violated_names
       { clean_obs with
         Invariant.reconvergences = 9;
         fault_transitions = Some 1 });
  Alcotest.(check (list string)) "churn within bound" []
    (violated_names
       { clean_obs with
         Invariant.reconvergences = 8;
         fault_transitions = Some 1 });
  Alcotest.(check int) "registry has eight invariants" 8
    (List.length Invariant.names)

let test_invariants_on_real_run () =
  (* a real scenario under a nasty plan: every invariant holds *)
  let s = Scenario.line_transfer in
  let plan =
    [
      Plan.Link_down { u = 1; v = 2; w = Plan.window 0.1 2.0 };
      Plan.Link_loss { u = 0; v = 1; w = Plan.window 0.5 4.0; prob = 0.3 };
      Plan.Link_corrupt { u = 2; v = 3; w = Plan.window 1.0 6.0; prob = 0.2 };
    ]
  in
  let obs = s.Scenario.run ~seed:11 ~plan in
  Alcotest.(check (list string)) "no violations" [] (violated_names obs);
  Alcotest.(check bool) "faults actually bit" true
    (obs.Invariant.dropped > 0)

(* ---------- the sweep: clean, domain-invariant, seed-sensitive ---------- *)

let render_runs runs =
  String.concat "\n"
    (List.map
       (fun (r : Sweep.run) ->
         Printf.sprintf "%d|%s|%d|%d|%s|%s" r.Sweep.index r.Sweep.scenario
           r.Sweep.seed r.Sweep.episodes
           (Plan.to_string r.Sweep.plan)
           (String.concat ";"
              (List.map Invariant.violation_string r.Sweep.violations)))
       runs)

let test_sweep_clean_and_deterministic () =
  let sweep domains seed =
    Budget.with_domains domains (fun () -> Sweep.run_sweep ~seed ~runs:60 ())
  in
  let a = sweep 1 42 in
  Alcotest.(check int) "60 runs" 60 (List.length a);
  Alcotest.(check int) "zero violations" 0 (List.length (Sweep.failures a));
  Alcotest.(check bool) "every scenario exercised" true
    (List.for_all
       (fun (s : Scenario.t) ->
         List.exists (fun r -> r.Sweep.scenario = s.Scenario.name) a)
       Scenario.all);
  let b = sweep 2 42 in
  Alcotest.(check string) "identical across domain counts" (render_runs a)
    (render_runs b);
  let c = sweep 1 43 in
  Alcotest.(check bool) "different seed, different sweep" true
    (render_runs a <> render_runs c)

(* ---------- planted violation -> shrink -> corpus -> replay ---------- *)

(* A deliberately broken scenario: it stops its engine at t = 1.0, so
   any episode whose window reaches past that leaves its restore event
   queued — a genuine engine-drained violation, planted on purpose.
   The real scenarios run to a far guard horizon precisely so this
   cannot happen to them. *)
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
    Engine.run ~until:1.0 engine;
    Invariant.observe ~clock_start engine net
  in
  { Scenario.name = "planted-truncated-run"; links = [ (0, 1) ];
    horizon = 4.0; run }

let culprit = Plan.Link_down { u = 0; v = 1; w = Plan.window 0.2 2.5 }

let planted_plan =
  [
    Plan.Link_loss { u = 0; v = 1; w = Plan.window 0.1 0.5; prob = 0.2 };
    culprit;
    Plan.Latency_spike { u = 0; v = 1; w = Plan.window 0.3 0.8; extra_s = 0.01 };
    Plan.Link_down { u = 0; v = 1; w = Plan.window 0.05 0.9 };
  ]

let test_shrink_planted_violation () =
  let fails = Sweep.still_fails planted ~seed:7 in
  Alcotest.(check bool) "planted plan fails" true (fails planted_plan);
  Alcotest.(check bool) "empty plan passes" false (fails []);
  let minimal = Shrink.shrink ~still_fails:fails planted_plan in
  Alcotest.(check bool) "strictly fewer episodes" true
    (List.length minimal < List.length planted_plan);
  Alcotest.(check int) "in fact 1-minimal" 1 (List.length minimal);
  Alcotest.(check bool) "kept exactly the culprit" true (minimal = [ culprit ]);
  Alcotest.(check bool) "minimal plan still fails" true (fails minimal)

let fresh_corpus_dir () =
  let stamp = Filename.temp_file "tussle-chaos" "" in
  Sys.remove stamp;
  stamp ^ ".corpus"

let test_corpus_roundtrip_and_replay () =
  let dir = fresh_corpus_dir () in
  let fails = Sweep.still_fails planted ~seed:7 in
  let minimal = Shrink.shrink ~still_fails:fails planted_plan in
  let entry =
    { Corpus.scenario = planted.Scenario.name; seed = 7; plan = minimal }
  in
  let path = Corpus.save ~dir entry in
  (match Corpus.load path with
  | Error e -> Alcotest.fail e
  | Ok e ->
    Alcotest.(check string) "scenario round-trips" entry.Corpus.scenario
      e.Corpus.scenario;
    Alcotest.(check int) "seed round-trips" entry.Corpus.seed e.Corpus.seed;
    Alcotest.(check bool) "plan round-trips" true (e.Corpus.plan = minimal);
    (* the persisted reproducer, replayed from disk, still fails *)
    Alcotest.(check bool) "replayed reproducer still fails" true
      (Invariant.check
         (planted.Scenario.run ~seed:e.Corpus.seed ~plan:e.Corpus.plan)
      <> []));
  (match Corpus.load_dir dir with
  | [ (p, Ok _) ] -> Alcotest.(check string) "listed" path p
  | other -> Alcotest.failf "expected 1 loadable entry, got %d" (List.length other));
  (* saving the same reproducer again is idempotent (same filename) *)
  let path2 = Corpus.save ~dir entry in
  Alcotest.(check string) "idempotent save" path path2;
  Alcotest.(check int) "still one file" 1 (List.length (Corpus.load_dir dir));
  (* a registered-scenario entry replays through Sweep.replay *)
  let real =
    {
      Corpus.scenario = "line-transfer";
      seed = 5;
      plan = [ Plan.Link_down { u = 1; v = 2; w = Plan.window 0.2 0.9 } ];
    }
  in
  (match Sweep.replay real with
  | Ok [] -> ()
  | Ok vs ->
    Alcotest.failf "unexpected violations: %s"
      (String.concat "; " (List.map Invariant.violation_string vs))
  | Error e -> Alcotest.fail e);
  match Sweep.replay { real with Corpus.scenario = "no-such-scenario" } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scenario must be an error"

let test_corpus_load_errors () =
  let dir = fresh_corpus_dir () in
  let write name contents =
    (match Sys.is_directory dir with
    | (exception Sys_error _) | false -> Sys.mkdir dir 0o755
    | true -> ());
    let oc = open_out (Filename.concat dir name) in
    output_string oc contents;
    close_out oc
  in
  write "no-header.plan" "link 0-1 down [0, 1)\n";
  write "bad-plan.plan" "scenario: line-transfer\nseed: 3\nwibble\n";
  write "invalid-plan.plan" "scenario: line-transfer\nseed: 3\nlink 2-2 down [0, 1)\n";
  let results = Corpus.load_dir dir in
  Alcotest.(check int) "three entries" 3 (List.length results);
  List.iter
    (fun (path, r) ->
      match r with
      | Ok _ -> Alcotest.failf "%s should not load" path
      | Error _ -> ())
    results

(* ---------- planted gray failure: legacy grammar is blind ---------- *)

(* A ring healed by hello-only detection, with a covert-drop budget
   declared.  Every legacy-grammar fault is overt — down / loss /
   corrupt / latency all announce themselves to the control plane or
   the ledgers — so 200 random legacy plans sail through.  One
   Gray_loss episode on the primary path violates the budget: hellos
   keep passing, the route never moves, and the link silently eats the
   flow.  The data-plane-verified config on the identical run reroutes
   within the budget.  This is the registry catching a failure class
   the old grammar could not even express. *)
let gray_blind config : Scenario.t =
  let edge = { Topology.latency = 0.005; bandwidth_bps = 1e7 } in
  let run ~seed ~plan =
    let net =
      Net.create
        (Topology.to_links (Topology.ring ~edge 6))
        (fun ~node:_ ~target:_ _ -> None)
    in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    let heal = Selfheal.attach ~config ~until:12.0 engine net in
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
  { Scenario.name = "gray-blind";
    links = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ];
    horizon = 10.0; run }

let gray_culprit_plan =
  [ Plan.Gray_loss { u = 1; v = 2; w = Plan.window 0.5 9.5; prob = 0.95 } ]

let test_planted_gray_failure () =
  let hello_only = gray_blind Selfheal.default_config in
  (* the pre-gray grammar cannot trip the covert budget: 200 random
     legacy plans, all clean *)
  for seed = 1 to 200 do
    let rng = Rng.create seed in
    let plan =
      Plan.random ~extended:false rng ~links:hello_only.Scenario.links
        ~horizon:hello_only.Scenario.horizon ~episodes:3
    in
    let vs = Invariant.check (hello_only.Scenario.run ~seed ~plan) in
    if vs <> [] then
      Alcotest.failf "legacy plan (seed %d) violated: %s" seed
        (String.concat "; " (List.map Invariant.violation_string vs))
  done;
  (* one gray episode on the primary path busts it under hello-only
     healing... *)
  let vs =
    Invariant.check (hello_only.Scenario.run ~seed:3 ~plan:gray_culprit_plan)
  in
  Alcotest.(check (list string)) "gray plan busts hello-only healing"
    [ "no-silent-blackhole" ]
    (List.map (fun v -> v.Invariant.invariant) vs);
  (* ... and the data-plane-verified control plane heals the same run
     back inside the budget *)
  let verified = gray_blind Selfheal.verified_config in
  let obs = verified.Scenario.run ~seed:3 ~plan:gray_culprit_plan in
  Alcotest.(check (list string)) "verified healing stays in budget" []
    (List.map (fun v -> v.Invariant.invariant) (Invariant.check obs));
  Alcotest.(check bool) "the detector actually rerouted" true
    (obs.Invariant.reconvergences > 0)

(* ---------- no enumeration path reaches the hang probe ---------- *)

let test_hang_probe_not_swept () =
  let ids = List.map (fun e -> e.Experiment.id) Registry.all in
  Alcotest.(check bool) "E99 not in Registry.all" false (List.mem "E99" ids);
  Alcotest.(check bool) "chaos scenarios don't know it" true
    (Scenario.find "E99" = None);
  Alcotest.(check bool) "no scenario is the probe" true
    (List.for_all
       (fun (s : Scenario.t) ->
         s.Scenario.name <> "E99"
         && not (List.mem s.Scenario.name ids))
       Scenario.all);
  (* a whole sweep never touches an experiment id at all *)
  let runs =
    Budget.with_domains 1 (fun () -> Sweep.run_sweep ~seed:1 ~runs:9 ())
  in
  Alcotest.(check bool) "sweep targets are scenarios only" true
    (List.for_all
       (fun r -> Scenario.find r.Sweep.scenario <> None)
       runs);
  (* the probe stays findable for the watchdog tests — just never enumerated *)
  match Registry.find "E99" with
  | Some e -> Alcotest.(check string) "still findable" "E99" e.Experiment.id
  | None -> Alcotest.fail "hang probe must stay findable by id"

(* ---------- explain ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let line_entry =
  {
    Corpus.scenario = "line-transfer";
    seed = 5;
    plan = [ Plan.Link_down { u = 1; v = 2; w = Plan.window 0.2 0.9 } ];
  }

let test_explain_deterministic_and_causal () =
  match (Explain.run line_entry, Explain.run line_entry) with
  | Error e, _ | _, Error e -> Alcotest.fail e
  | Ok a, Ok b ->
    Alcotest.(check string) "byte-identical narrative" a.Explain.narrative
      b.Explain.narrative;
    Alcotest.(check bool) "recorder left disabled" false (Flight.enabled ());
    Alcotest.(check bool) "names the faulted link" true
      (contains a.Explain.narrative "link 1-2");
    Alcotest.(check bool) "names the drop reason" true
      (contains a.Explain.narrative "link-down");
    Alcotest.(check bool) "attributes drops to the episode" true
      (contains a.Explain.narrative "during episode [0]");
    Alcotest.(check bool) "clean verdict on a fixed regression" true
      (a.Explain.violations = []);
    (* the flow-trace artifact validates, and survives a serializer
       round-trip *)
    let artifact = Explain.to_json a in
    (match Explain.validate_json artifact with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    (match Obs_json.parse (Obs_json.to_string artifact) with
    | Error e -> Alcotest.fail e
    | Ok j -> (
      match Explain.validate_json j with
      | Ok () -> ()
      | Error e -> Alcotest.fail e));
    (* corrupted artifacts are rejected with the exact message *)
    let retype_flow i ev =
      match ev with
      | Obs_json.Obj fields when i = 3 ->
        Obs_json.Obj
          (List.map
             (fun (k, v) -> if k = "flow" then (k, Obs_json.Str "x") else (k, v))
             fields)
      | ev -> ev
    in
    let corrupt_event =
      match artifact with
      | Obs_json.Obj fields ->
        Obs_json.Obj
          (List.map
             (function
               | "events", Obs_json.List evs ->
                 ("events", Obs_json.List (List.mapi retype_flow evs))
               | field -> field)
             fields)
      | _ -> Alcotest.fail "artifact is not an object"
    in
    List.iter
      (fun (label, bad, expected) ->
        Alcotest.(check (result unit string)) label (Error expected)
          (Explain.validate_json bad))
      [
        ( "bad schema tag",
          Obs_json.Obj [ ("schema", Obs_json.Str "nope") ],
          {|flow-trace: schema "nope", expected "tussle.flow-trace/1"|} );
        ( "wrong-typed flow",
          corrupt_event,
          "flow-trace: missing or ill-typed events[3].flow" );
      ]

let test_violation_narrative () =
  (* the attachment the sweep prints for each violation: pure, so it
     can be pinned against a hand-built causal stream *)
  let ev ~seq ~sim_t ~flow ~kind ~node ~peer ~detail ~value =
    { Flight.seq; sim_t; flow; kind; node; peer; detail; value }
  in
  let events =
    [
      ev ~seq:0 ~sim_t:0.19 ~flow:3 ~kind:"inject" ~node:0 ~peer:3
        ~detail:"web" ~value:1500.0;
      ev ~seq:1 ~sim_t:0.25 ~flow:3 ~kind:"drop" ~node:1 ~peer:2
        ~detail:"link-down" ~value:0.0;
    ]
  in
  let v =
    { Invariant.invariant = "packet-conservation"; detail = "one lost" }
  in
  let s = Explain.narrative_of_violation ~entry:line_entry ~events v in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "attachment mentions %S" needle)
        true (contains s needle))
    [ "violation: packet-conservation"; "packet 3"; "DROPPED at link 1-2";
      "during episode [0]" ]

(* Every committed reproducer's narrative, byte for byte: the
   [tussle explain] stdout for [chaos/corpus/NAME.plan] is pinned in
   [test/explain_golden/NAME.txt], and every reproducer has one. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Both directories sit where dune's [deps] stanza copies them, beside
   the test binary, so the tests pass from any working directory. *)
let beside_binary rel =
  Filename.concat (Filename.dirname Sys.executable_name) rel

let corpus_dir = beside_binary "../chaos/corpus"
let golden_dir = beside_binary "explain_golden"
let corpus_plan stem = Filename.concat corpus_dir (stem ^ ".plan")

let stems dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (Filename.chop_suffix_opt ~suffix)
  |> List.sort compare

let test_explain_golden_corpus () =
  let goldens = stems golden_dir ".txt" in
  Alcotest.(check (list string)) "a golden narrative per reproducer"
    (stems corpus_dir ".plan") goldens;
  List.iter
    (fun stem ->
      match Corpus.load (corpus_plan stem) with
      | Error e -> Alcotest.fail e
      | Ok entry -> (
        match Explain.run entry with
        | Error e -> Alcotest.fail e
        | Ok r ->
          Alcotest.(check string) stem
            (read_file (Filename.concat golden_dir (stem ^ ".txt")))
            r.Explain.narrative))
    goldens

(* The [tussle explain --json] artifact of every committed reproducer,
   pinned by MD5 ([Digest.string]) of the file's bytes: the artifacts
   are 60 KB to 1.1 MB, too big to commit, and any change to the
   emitter or to what the flight recorder retains moves a digest. *)
let artifact_digests =
  [
    ("grid-static-23-39652dfe", "4c65c43c0fc201c2bd0f5b3a74ab1351");
    ("line-transfer-5-07d08a99", "7d49225c516e1905cc383eec93695ad5");
    ("ring-selfheal-17-39ea501a", "8d33b81d8a18dbf35aca321e26c4473a");
    ("ring-verified-21-2f443a96", "297deba0e5f008f99497f1afd4883699");
  ]

let test_explain_artifact_digests () =
  Alcotest.(check (list string)) "a digest per reproducer"
    (stems corpus_dir ".plan") (List.map fst artifact_digests);
  List.iter
    (fun (stem, digest) ->
      match Corpus.load (corpus_plan stem) with
      | Error e -> Alcotest.fail e
      | Ok entry -> (
        match Explain.run entry with
        | Error e -> Alcotest.fail e
        | Ok r ->
          let path = Filename.temp_file "flowtrace" ".json" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Obs_json.to_file path (Explain.to_json r);
              Alcotest.(check string) stem digest
                (Digest.to_hex (Digest.string (read_file path))))))
    artifact_digests

(* The attribution table: one episode of each kind on link 1-2 (or
   node 1), open over [1, 2), judged against a synthetic drop of every
   reason at three locations and four times.  Link reasons sit on the
   directed link 1->2, its reverse 2->1, or the unrelated 2->3; node
   reasons at node 1, 2 or 3. *)
let w12 = Plan.window 1.0 2.0

let attribution_specs =
  [
    Plan.Link_down { u = 1; v = 2; w = w12 };
    Plan.Link_loss { u = 1; v = 2; w = w12; prob = 0.5 };
    Plan.Link_corrupt { u = 1; v = 2; w = w12; prob = 0.5 };
    Plan.Latency_spike { u = 1; v = 2; w = w12; extra_s = 0.1 };
    Plan.Node_crash { node = 1; w = w12 };
    Plan.Middlebox_break { node = 1; w = w12; covert = true };
    Plan.Gray_loss { u = 1; v = 2; w = w12; prob = 0.5 };
    Plan.Unidirectional_down { u = 1; v = 2; w = w12 };
    Plan.Link_flap { u = 1; v = 2; w = w12; period_s = 0.4; duty = 0.5 };
    Plan.Blackhole { node = 1; w = w12 };
  ]

let link_sites = [ (1, 2); (2, 1); (2, 3) ]
let node_sites = [ (1, -1); (2, -1); (3, -1) ]

(* (reason as the recorder writes it, the locations it can sit at) *)
let attribution_reasons =
  [
    (Net.No_route, node_sites);
    (Net.Queue_full (0, 0), link_sites);
    (Net.Filtered (Plan.broken_device_name, 0), node_sites);
    (Net.Filtered ("firewall", 0), node_sites);
    (Net.Ttl_exceeded, node_sites);
    (Net.Link_down (0, 0), link_sites);
    (Net.Fault_loss (0, 0), link_sites);
    (Net.Corrupted (0, 0), link_sites);
    (Net.Gray_loss (0, 0), link_sites);
    (Net.Blackholed 0, node_sites);
  ]

let drop_event ~sim_t ~node ~peer reason =
  { Flight.seq = 0; sim_t; flow = 0; kind = "drop"; node; peer;
    detail = Net.drop_reason_label reason; value = 0.0 }

let site_string (node, peer) =
  if peer < 0 then string_of_int node else Printf.sprintf "%d-%d" node peer

(* For one spec: every (reason@site) the episode explains at t = 1.5,
   after checking that t = 1.0 agrees and that t = 0.5 and t = 2.0
   (outside the half-open window) explain nothing. *)
let explained_by spec =
  let plan = [ spec ] in
  let hit ~sim_t (node, peer) reason =
    Explain.attribution plan (drop_event ~sim_t ~node ~peer reason)
    <> "no episode open at this time"
  in
  List.concat_map
    (fun (reason, sites) ->
      List.filter_map
        (fun site ->
          let label =
            Printf.sprintf "%s@%s" (Net.drop_reason_label reason)
              (site_string site)
          in
          if hit ~sim_t:0.5 site reason || hit ~sim_t:2.0 site reason then
            Alcotest.failf "%s explained outside its window by %s" label
              (Plan.spec_string spec);
          let inside = hit ~sim_t:1.5 site reason in
          if hit ~sim_t:1.0 site reason <> inside then
            Alcotest.failf "%s: window start disagrees for %s" label
              (Plan.spec_string spec);
          if inside then Some label else None)
        sites)
    attribution_reasons
  |> String.concat " "

let test_attribution_table () =
  let route = "no-route@1 no-route@2 no-route@3 queue-full@1-2 queue-full@2-1 \
               queue-full@2-3 ttl-exceeded@1 ttl-exceeded@2 ttl-exceeded@3" in
  let expected =
    [
      route ^ " link-down@1-2 link-down@2-1";
      "fault-loss@1-2 fault-loss@2-1";
      "corrupted@1-2 corrupted@2-1";
      "";
      route ^ " link-down@1-2 link-down@2-1";
      "filtered:broken-device@1";
      "gray-loss@1-2 gray-loss@2-1";
      route ^ " link-down@1-2";
      route ^ " link-down@1-2 link-down@2-1";
      route ^ " blackholed@1";
    ]
  in
  List.iter2
    (fun spec want ->
      Alcotest.(check string) (Plan.spec_string spec) want (explained_by spec))
    attribution_specs expected;
  (* the verdict's exact wording, for a miss, a hit and a double hit *)
  let down = List.nth attribution_specs 0 and crash = List.nth attribution_specs 4 in
  let ev = drop_event ~sim_t:1.5 ~node:1 ~peer:2 (Net.Link_down (0, 0)) in
  Alcotest.(check string) "miss" "no episode open at this time"
    (Explain.attribution [ down ] { ev with Flight.sim_t = 3.0 });
  Alcotest.(check string) "hit" "during episode [0] link 1-2 down [1, 2)"
    (Explain.attribution [ down ] ev);
  Alcotest.(check string) "two episodes"
    "during episode [0] link 1-2 down [1, 2), episode [2] node 1 crash [1, 2)"
    (Explain.attribution [ down; List.nth attribution_specs 1; crash ] ev)

let test_explain_unknown_scenario () =
  match Explain.run { Corpus.scenario = "no-such"; seed = 1; plan = [] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scenario accepted"

(* ---------- plans that do not fit their scenario ---------- *)

(* line-transfer is the 4-node line 0-1-2-3: no link 0-99, no node 99 *)
let misfit_link =
  { Corpus.scenario = "line-transfer"; seed = 5;
    plan = [ Plan.Link_down { u = 0; v = 99; w = Plan.window 1.0 2.0 } ] }

let misfit_node =
  { misfit_link with
    Corpus.plan = [ Plan.Blackhole { node = 99; w = Plan.window 1.0 2.0 } ] }

let misfit_messages =
  [ (misfit_link, "line-transfer has no link 0-99 (episode \"link 0-99 down [1, 2)\")");
    (misfit_node, "line-transfer has no node 99 (episode \"node 99 blackhole [1, 2)\")") ]

let test_fits_random_draws () =
  (* every plan a scenario's own links can produce fits it, in either
     link orientation *)
  List.iter
    (fun (s : Scenario.t) ->
      let rng = Rng.create 77 in
      let flipped = List.map (fun (u, v) -> (v, u)) s.Scenario.links in
      for _ = 1 to 50 do
        List.iter
          (fun links ->
            let plan =
              Plan.random rng ~links ~horizon:s.Scenario.horizon ~episodes:4
            in
            Alcotest.(check (result unit string)) s.Scenario.name (Ok ())
              (Scenario.fits s plan))
          [ s.Scenario.links; flipped ]
      done)
    Scenario.all

let test_misfit_explain () =
  (* what `tussle explain FILE` prints as "explain: MSG", exit 2 *)
  List.iter
    (fun (entry, msg) ->
      match Explain.run entry with
      | Error m -> Alcotest.(check string) "explain error" msg m
      | Ok _ -> Alcotest.fail "misfit plan explained")
    misfit_messages

let test_misfit_replay () =
  (* `tussle chaos --replay DIR`: a misfit entry loads, then Sweep.replay
     rejects it — a LOAD ERROR line, not an exception that aborts the
     replay of the entries after it *)
  let dir = fresh_corpus_dir () in
  let paths = List.map (fun (e, _) -> Corpus.save ~dir e) misfit_messages in
  let good = Corpus.save ~dir line_entry in
  (* an unknown scenario loads too; Scenario.bind is the one check *)
  let unknown =
    Corpus.save ~dir { misfit_link with Corpus.scenario = "no-such-scenario" }
  in
  Alcotest.(check int) "four files" 4 (List.length (Corpus.load_dir dir));
  List.iter
    (fun (path, entry) ->
      match Result.bind entry Sweep.replay with
      | Error m when path = unknown ->
        Alcotest.(check string) "the LOAD ERROR message"
          {|unknown scenario "no-such-scenario"|} m
      | Error m ->
        Alcotest.(check bool) ("misfit " ^ path) true (List.mem path paths);
        Alcotest.(check bool) "names the scenario" true
          (String.starts_with ~prefix:"line-transfer has no " m)
      | Ok vs ->
        Alcotest.(check string) "the fitting entry replays" good path;
        Alcotest.(check int) "clean" 0 (List.length vs))
    (Corpus.load_dir dir)

let test_misfit_search () =
  (* `tussle search --corpus DIR`: a misfit entry is not a seed, so it
     never reaches Inject.install inside Pool.map, where it would raise *)
  let dir = fresh_corpus_dir () in
  List.iter (fun (e, _) -> ignore (Corpus.save ~dir e)) misfit_messages;
  ignore (Corpus.save ~dir line_entry);
  match
    Budget.with_domains 1
      (Tussle_search.Driver.run ~corpus_dir:dir ~backend:"mutate" ~seed:11
         ~budget:8)
  with
  | Error m -> Alcotest.fail m
  | Ok (_, o) ->
    Alcotest.(check int) "one corpus seed + one draw per scenario"
      (1 + List.length Scenario.all)
      o.Tussle_search.Backend.seeded

let test_recorder_zero_perturbation () =
  (* the flight recorder observes the simulation; it must not change
     what the simulation does *)
  let sc =
    match Scenario.find "line-transfer" with
    | Some s -> s
    | None -> Alcotest.fail "line-transfer scenario missing"
  in
  let plan = line_entry.Corpus.plan in
  Flight.disable ();
  Flight.reset ();
  let off = sc.Scenario.run ~seed:5 ~plan in
  Flight.enable ();
  Flight.reset ();
  let on_ = sc.Scenario.run ~seed:5 ~plan in
  Flight.disable ();
  Flight.reset ();
  Alcotest.(check bool) "identical observation on vs off" true (off = on_)

let () =
  Alcotest.run "chaos"
    [
      ( "invariants",
        [
          Alcotest.test_case "hand-built ledgers" `Quick
            test_invariants_on_ledgers;
          Alcotest.test_case "real faulted run" `Quick
            test_invariants_on_real_run;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean + deterministic" `Slow
            test_sweep_clean_and_deterministic;
        ] );
      ( "shrink-and-corpus",
        [
          Alcotest.test_case "planted violation shrinks" `Quick
            test_shrink_planted_violation;
          Alcotest.test_case "corpus round-trip + replay" `Quick
            test_corpus_roundtrip_and_replay;
          Alcotest.test_case "planted gray failure" `Slow
            test_planted_gray_failure;
          Alcotest.test_case "corpus load errors" `Quick
            test_corpus_load_errors;
        ] );
      ( "explain",
        [
          Alcotest.test_case "deterministic causal narrative" `Quick
            test_explain_deterministic_and_causal;
          Alcotest.test_case "violation attachment" `Quick
            test_violation_narrative;
          Alcotest.test_case "golden narratives for the corpus" `Quick
            test_explain_golden_corpus;
          Alcotest.test_case "artifact digests for the corpus" `Quick
            test_explain_artifact_digests;
          Alcotest.test_case "attribution table" `Quick
            test_attribution_table;
          Alcotest.test_case "unknown scenario rejected" `Quick
            test_explain_unknown_scenario;
          Alcotest.test_case "recorder never perturbs a run" `Quick
            test_recorder_zero_perturbation;
        ] );
      ( "misfit-plans",
        [
          Alcotest.test_case "random draws fit" `Quick test_fits_random_draws;
          Alcotest.test_case "explain rejects" `Quick test_misfit_explain;
          Alcotest.test_case "replay reports" `Quick test_misfit_replay;
          Alcotest.test_case "search skips" `Quick test_misfit_search;
        ] );
      ( "hang-probe-guard",
        [
          Alcotest.test_case "never enumerated" `Quick
            test_hang_probe_not_swept;
        ] );
    ]
