(* Tests for tussle.core: interests, actors, mechanisms, scenario engine,
   actor-network dynamics, design metrics. *)

module Rng = Tussle_prelude.Rng
module Interest = Tussle_core.Interest
module Actor = Tussle_core.Actor
module Mechanism = Tussle_core.Mechanism
module Scenario = Tussle_core.Scenario
module Actor_network = Tussle_core.Actor_network
module Metrics = Tussle_core.Metrics

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Interest ---------- *)

let test_interest_clamp_dedupe () =
  let s = Interest.make [ (Interest.Privacy, 5.0); (Interest.Privacy, -1.0) ] in
  check_float "clamped, first wins" 1.0 (Interest.weight s Interest.Privacy)

let test_interest_combine () =
  let a = Interest.make [ (Interest.Privacy, 0.8) ] in
  let b = Interest.make [ (Interest.Privacy, 0.8); (Interest.Control, -0.5) ] in
  let c = Interest.combine [ a; b ] in
  check_float "clamped sum" 1.0 (Interest.weight c Interest.Privacy);
  check_float "carried" (-0.5) (Interest.weight c Interest.Control)

(* ---------- Actor ---------- *)

let test_actor_defaults () =
  let u = Actor.make ~id:0 ~name:"alice" Actor.User in
  Alcotest.(check bool) "privacy positive" true
    (Interest.weight u.Actor.stance Interest.Privacy > 0.0)

let test_actor_utility_sign () =
  let user = Actor.make ~id:0 ~name:"u" Actor.User in
  let privacy_up = Interest.make [ (Interest.Privacy, 1.0) ] in
  let control_up = Interest.make [ (Interest.Control, 1.0) ] in
  Alcotest.(check bool) "likes privacy" true (Actor.utility user privacy_up > 0.0);
  Alcotest.(check bool) "dislikes control" true (Actor.utility user control_up < 0.0)

(* ---------- Mechanism ---------- *)

let test_mechanism_counter_simple () =
  (* port filter deployed, then tunnel counters it *)
  let active = Mechanism.active [ Mechanism.port_filter; Mechanism.tunnel ] in
  let names = List.map (fun m -> m.Mechanism.name) active in
  Alcotest.(check (list string)) "tunnel wins" [ "tunnel" ] names

let test_mechanism_counter_chain () =
  (* escalation: port-filter < tunnel < app-filter < encryption *)
  let deployed =
    [ Mechanism.port_filter; Mechanism.tunnel; Mechanism.app_filter;
      Mechanism.encryption ]
  in
  let names = List.map (fun m -> m.Mechanism.name) (Mechanism.active deployed) in
  (* encryption kills app-filter; app-filter dead so tunnel lives;
     tunnel kills port-filter *)
  Alcotest.(check (list string)) "ladder" [ "tunnel"; "encryption" ] names

let test_mechanism_newest_wins_mutual () =
  let a =
    Mechanism.make ~name:"a" ~deployer:Actor.User ~counters:[ "b" ]
      (Interest.make [])
  in
  let b =
    Mechanism.make ~name:"b" ~deployer:Actor.Isp ~counters:[ "a" ]
      (Interest.make [])
  in
  let names l = List.map (fun m -> m.Mechanism.name) (Mechanism.active l) in
  Alcotest.(check (list string)) "later wins" [ "b" ] (names [ a; b ]);
  Alcotest.(check (list string)) "order matters" [ "a" ] (names [ b; a ])

let test_mechanism_net_effect () =
  let e = Mechanism.net_effect [ Mechanism.port_filter; Mechanism.tunnel ] in
  (* only tunnel active: transparency positive *)
  Alcotest.(check bool) "transparency restored" true
    (Interest.weight e Interest.Transparency > 0.0)

let test_mechanism_available_to () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "deployer matches" true
        (m.Mechanism.deployer = Actor.User))
    (Mechanism.available_to Actor.User);
  Alcotest.(check bool) "users have tools" true
    (List.length (Mechanism.available_to Actor.User) >= 3)

(* ---------- Scenario ---------- *)

let test_scenario_isp_vs_user_escalation () =
  let actors =
    [
      Actor.make ~id:0 ~name:"isp" Actor.Isp;
      Actor.make ~id:1 ~name:"user" Actor.User;
    ]
  in
  let result = Scenario.run ~actors ~available:Mechanism.available_to () in
  (* the tussle must have produced at least some deployment activity *)
  Alcotest.(check bool) "rounds happened" true (List.length result.Scenario.rounds > 0);
  let deploys =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (_, m) ->
            match m with Scenario.Deploy n -> Some n | _ -> None)
          r.Scenario.moves)
      result.Scenario.rounds
  in
  Alcotest.(check bool) "mechanisms deployed" true (List.length deploys > 0)

let test_scenario_render () =
  (* `tussle scenario` at its defaults: isp, user, government, 30 rounds *)
  let actors =
    List.mapi
      (fun i k -> Actor.make ~id:i ~name:(Actor.kind_to_string k) k)
      [ Actor.Isp; Actor.User; Actor.Government ]
  in
  Alcotest.(check string) "rendered tussle"
    "round  0 | 0:deploy port-filter; 1:deploy tunnel; 2:deploy wiretap\n\
     round  1 | 0:deploy app-filter; 1:deploy encryption; 2:withdraw wiretap\n\
     round  2 | 0:deploy value-pricing; 1:deploy overlay; 2:deploy wiretap\n\
     round  3 | 0:withdraw app-filter; 1:deploy source-routing\n\
     round  4 | 0:deploy app-filter; 1:deploy nat\n\
     round  5 | 1:withdraw tunnel\n\
     round  6 | 1:deploy tunnel\n\
     round  7 | 0:withdraw app-filter; 1:withdraw nat\n\
     round  8 | 0:deploy app-filter; 1:deploy nat\n\
     round  9 | 1:withdraw tunnel\n\
     ending: cycle (start=6, period=4)\n\
     outcome: {transparency=-0.80, privacy=-0.40, control=-0.10, \
     revenue=1.00, openness=0.80, innovation=0.30, accountability=0.40}\n"
    (Scenario.render
       (Scenario.run ~max_rounds:30 ~actors ~available:Mechanism.available_to ()))

let test_scenario_terminates () =
  let actors =
    List.mapi
      (fun i k -> Actor.make ~id:i ~name:(Actor.kind_to_string k) k)
      Actor.all_kinds
  in
  let result = Scenario.run ~max_rounds:60 ~actors ~available:Mechanism.available_to () in
  (* must end via one of the three endings without raising *)
  match result.Scenario.ending with
  | Scenario.Fixpoint _ | Scenario.Cycle _ | Scenario.Horizon -> ()

let test_scenario_no_actors_fixpoint () =
  let result = Scenario.run ~actors:[] ~available:Mechanism.available_to () in
  (match result.Scenario.ending with
  | Scenario.Fixpoint 1 -> ()
  | e -> Alcotest.failf "expected immediate fixpoint, got %s" (Scenario.ending_to_string e));
  Alcotest.(check int) "no outcome shift" 0 (List.length result.Scenario.final_outcome)

let test_scenario_single_user_settles () =
  let actors = [ Actor.make ~id:0 ~name:"u" Actor.User ] in
  let result = Scenario.run ~actors ~available:Mechanism.available_to () in
  match result.Scenario.ending with
  | Scenario.Fixpoint _ -> ()
  | e -> Alcotest.failf "lone actor should settle, got %s" (Scenario.ending_to_string e)

let test_scenario_utilities_reported () =
  let actors =
    [ Actor.make ~id:3 ~name:"isp" Actor.Isp; Actor.make ~id:1 ~name:"u" Actor.User ]
  in
  let result = Scenario.run ~actors ~available:Mechanism.available_to () in
  Alcotest.(check (list int)) "all actors reported" [ 1; 3 ]
    (List.map fst result.Scenario.utilities)

(* ---------- Actor network ---------- *)

let test_actor_network_freezes_without_arrivals () =
  let rng = Rng.create 5 in
  let snaps = Actor_network.run rng Actor_network.default_config in
  let final = Actor_network.final_rigidity snaps in
  Alcotest.(check bool) "frozen" true (final > 0.9)

let test_actor_network_churn_prevents_freezing () =
  let rng = Rng.create 5 in
  let cfg = { Actor_network.default_config with Actor_network.arrival_rate = 1.0 } in
  let snaps = Actor_network.run rng cfg in
  let final = Actor_network.final_rigidity snaps in
  Alcotest.(check bool) "still fluid" true (final < 0.9);
  (* and the population grew *)
  match List.rev snaps with
  | last :: _ ->
    Alcotest.(check bool) "grew" true
      (last.Actor_network.population > Actor_network.default_config.Actor_network.initial_actors)
  | [] -> Alcotest.fail "no snapshots"

let test_actor_network_monotone_contrast () =
  (* rigidity under no churn must exceed rigidity under heavy churn *)
  let frozen =
    Actor_network.final_rigidity
      (Actor_network.run (Rng.create 1) Actor_network.default_config)
  in
  let churning =
    Actor_network.final_rigidity
      (Actor_network.run (Rng.create 1)
         { Actor_network.default_config with Actor_network.arrival_rate = 2.0 })
  in
  Alcotest.(check bool) "churn keeps it plastic" true (churning < frozen)

let test_actor_network_collision_disrupts () =
  let rng = Rng.create 9 in
  let cfg = { Actor_network.default_config with Actor_network.steps = 100 } in
  let snaps =
    Actor_network.collides rng cfg ~incumbent_size:30 ~incumbent_position:0.95
  in
  let at_step k =
    List.find (fun s -> s.Actor_network.step = k) snaps
  in
  let before = (at_step 49).Actor_network.alignment in
  let after = (at_step 51).Actor_network.alignment in
  Alcotest.(check bool) "collision breaks alignment" true
    (after < before -. 0.05)

let test_actor_network_snapshot_count () =
  let snaps =
    Actor_network.run (Rng.create 2)
      { Actor_network.default_config with Actor_network.steps = 10 }
  in
  Alcotest.(check int) "initial + steps" 11 (List.length snaps)

let test_actor_network_validation () =
  Alcotest.check_raises "bad coupling"
    (Invalid_argument "Actor_network: coupling not in (0,1]") (fun () ->
      ignore
        (Actor_network.run (Rng.create 1)
           { Actor_network.default_config with Actor_network.coupling = 0.0 }))

(* ---------- Metrics ---------- *)

let closed_design =
  {
    Metrics.design_name = "closed";
    control_points =
      [
        {
          Metrics.cp_name = "access";
          holder = Actor.Isp;
          alternatives = 1;
          reveals_presence = false;
        };
      ];
    value_flows = [];
    service_flows = [ (Actor.User, Actor.Isp) ];
    module_map =
      {
        Metrics.modules = [ ("dns", [ "machine-naming"; "trademark" ]) ];
        contested = [ "trademark" ];
      };
  }

let open_design =
  {
    Metrics.design_name = "open";
    control_points =
      [
        {
          Metrics.cp_name = "access";
          holder = Actor.Isp;
          alternatives = 5;
          reveals_presence = true;
        };
      ];
    value_flows = [ (Actor.User, Actor.Isp) ];
    service_flows = [ (Actor.User, Actor.Isp) ];
    module_map =
      {
        Metrics.modules =
          [ ("machine-names", [ "machine-naming" ]); ("brands", [ "trademark" ]) ];
        contested = [ "trademark" ];
      };
  }

let test_metrics_closed_vs_open () =
  let c = Metrics.score closed_design and o = Metrics.score open_design in
  check_float "closed choice" 0.0 c.Metrics.choice;
  check_float "open choice" 0.8 o.Metrics.choice;
  check_float "closed visibility" 0.0 c.Metrics.visibility;
  check_float "open visibility" 1.0 o.Metrics.visibility;
  check_float "closed isolation" 0.0 c.Metrics.isolation;
  check_float "open isolation" 1.0 o.Metrics.isolation;
  check_float "closed value flow" 0.0 c.Metrics.value_flow;
  check_float "open value flow" 1.0 o.Metrics.value_flow;
  Alcotest.(check bool) "overall ranks open first" true
    (o.Metrics.overall > c.Metrics.overall)

let test_metrics_empty_design_perfect () =
  let d =
    {
      Metrics.design_name = "empty";
      control_points = [];
      value_flows = [];
      service_flows = [];
      module_map = { Metrics.modules = []; contested = [] };
    }
  in
  let s = Metrics.score d in
  check_float "vacuous" 1.0 s.Metrics.overall

(* ---------- Guidelines ---------- *)

module Guidelines = Tussle_core.Guidelines

let test_guidelines_catalogue () =
  Alcotest.(check int) "ten guidelines" 10 (List.length Guidelines.catalogue);
  let ids = List.map (fun g -> g.Guidelines.g_id) Guidelines.catalogue in
  Alcotest.(check (list string)) "ordered ids"
    [ "G1"; "G2"; "G3"; "G4"; "G5"; "G6"; "G7"; "G8"; "G9"; "G10" ] ids

let test_guidelines_references () =
  check_float "open design perfect" 1.0
    (Guidelines.score Guidelines.open_design_reference);
  Alcotest.(check int) "open: no violations" 0
    (List.length (Guidelines.lint Guidelines.open_design_reference));
  check_float "walled garden near zero" 0.1
    (Guidelines.score Guidelines.walled_garden_reference);
  Alcotest.(check int) "walled garden: nine violations" 9
    (List.length (Guidelines.lint Guidelines.walled_garden_reference))

let test_guidelines_individual_checks () =
  let base = Guidelines.open_design_reference in
  let failing_g1 = { base with Guidelines.server_choices = 1 } in
  (match Guidelines.lint failing_g1 with
  | [ v ] -> Alcotest.(check string) "g1 caught" "G1" v.Guidelines.guideline.Guidelines.g_id
  | _ -> Alcotest.fail "expected exactly G1");
  let failing_g3 = { base with Guidelines.supports_e2e_encryption = false } in
  match Guidelines.lint failing_g3 with
  | [ v ] -> Alcotest.(check string) "g3 caught" "G3" v.Guidelines.guideline.Guidelines.g_id
  | _ -> Alcotest.fail "expected exactly G3"

let test_guidelines_violation_pp () =
  match Guidelines.lint Guidelines.walled_garden_reference with
  | v :: _ ->
    let s = Format.asprintf "%a" Guidelines.pp_violation v in
    Alcotest.(check bool) "mentions design" true
      (String.length s > 20)
  | [] -> Alcotest.fail "expected violations"

(* ---------- scenario withdrawal coverage ---------- *)

let test_scenario_withdraw_move () =
  (* an actor that deployed something it later regrets: force this by
     running the full government/user pair, which historically produces
     withdraw moves in the escalation *)
  let actors =
    [ Actor.make ~id:0 ~name:"isp" Actor.Isp;
      Actor.make ~id:1 ~name:"user" Actor.User;
      Actor.make ~id:2 ~name:"gov" Actor.Government ]
  in
  let result = Scenario.run ~max_rounds:25 ~actors ~available:Mechanism.available_to () in
  let withdrawals =
    List.concat_map
      (fun r ->
        List.filter
          (fun (_, m) -> match m with Scenario.Withdraw _ -> true | _ -> false)
          r.Scenario.moves)
      result.Scenario.rounds
  in
  Alcotest.(check bool) "withdrawals happen in the escalation" true
    (List.length withdrawals > 0)

let test_mechanism_find () =
  let deployed = [ Mechanism.tunnel; Mechanism.encryption ] in
  Alcotest.(check bool) "found" true
    (Mechanism.find deployed "tunnel" <> None);
  Alcotest.(check bool) "absent" true (Mechanism.find deployed "nat" = None)

let () =
  Alcotest.run "core"
    [
      ( "interest",
        [
          Alcotest.test_case "clamp/dedupe" `Quick test_interest_clamp_dedupe;
          Alcotest.test_case "combine" `Quick test_interest_combine;
        ] );
      ( "actor",
        [
          Alcotest.test_case "defaults" `Quick test_actor_defaults;
          Alcotest.test_case "utility sign" `Quick test_actor_utility_sign;
        ] );
      ( "mechanism",
        [
          Alcotest.test_case "counter simple" `Quick test_mechanism_counter_simple;
          Alcotest.test_case "counter chain" `Quick test_mechanism_counter_chain;
          Alcotest.test_case "newest wins" `Quick test_mechanism_newest_wins_mutual;
          Alcotest.test_case "net effect" `Quick test_mechanism_net_effect;
          Alcotest.test_case "available to" `Quick test_mechanism_available_to;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "isp vs user" `Quick test_scenario_isp_vs_user_escalation;
          Alcotest.test_case "terminates" `Quick test_scenario_terminates;
          Alcotest.test_case "render" `Quick test_scenario_render;
          Alcotest.test_case "no actors" `Quick test_scenario_no_actors_fixpoint;
          Alcotest.test_case "lone actor settles" `Quick test_scenario_single_user_settles;
          Alcotest.test_case "utilities reported" `Quick test_scenario_utilities_reported;
        ] );
      ( "actor-network",
        [
          Alcotest.test_case "freezes without arrivals" `Quick
            test_actor_network_freezes_without_arrivals;
          Alcotest.test_case "churn prevents freezing" `Quick
            test_actor_network_churn_prevents_freezing;
          Alcotest.test_case "monotone contrast" `Quick
            test_actor_network_monotone_contrast;
          Alcotest.test_case "collision disrupts" `Quick
            test_actor_network_collision_disrupts;
          Alcotest.test_case "snapshot count" `Quick test_actor_network_snapshot_count;
          Alcotest.test_case "validation" `Quick test_actor_network_validation;
        ] );
      ( "scenario-extra",
        [
          Alcotest.test_case "withdraw moves" `Quick test_scenario_withdraw_move;
          Alcotest.test_case "mechanism find" `Quick test_mechanism_find;
        ] );
      ( "guidelines",
        [
          Alcotest.test_case "catalogue" `Quick test_guidelines_catalogue;
          Alcotest.test_case "references" `Quick test_guidelines_references;
          Alcotest.test_case "individual checks" `Quick
            test_guidelines_individual_checks;
          Alcotest.test_case "violation pp" `Quick test_guidelines_violation_pp;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "closed vs open" `Quick test_metrics_closed_vs_open;
          Alcotest.test_case "empty design" `Quick test_metrics_empty_design_perfect;
        ] );
    ]
