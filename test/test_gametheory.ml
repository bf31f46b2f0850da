(* Tests for tussle.gametheory: normal form, zero-sum, Nash, auctions,
   repeated games, best-response dynamics, linalg. *)

module Rng = Tussle_prelude.Rng
module Linalg = Tussle_gametheory.Linalg
module Normal_form = Tussle_gametheory.Normal_form
module Zerosum = Tussle_gametheory.Zerosum
module Nash = Tussle_gametheory.Nash
module Auction = Tussle_gametheory.Auction
module Repeated = Tussle_gametheory.Repeated
module Bestresponse = Tussle_gametheory.Bestresponse

let check_float = Alcotest.(check (float 1e-9))
let check_close = Alcotest.(check (float 1e-6))

(* ---------- Linalg ---------- *)

let test_linalg_solve () =
  match Linalg.solve [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] [| 5.0; 10.0 |] with
  | Some x ->
    check_close "x0" 1.0 x.(0);
    check_close "x1" 3.0 x.(1)
  | None -> Alcotest.fail "singular?"

let test_linalg_singular () =
  Alcotest.(check bool) "singular" true
    (Linalg.solve [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |] [| 1.0; 2.0 |] = None)

(* ---------- Normal form ---------- *)

let test_pd_pure_nash () =
  (* prisoner's dilemma: unique equilibrium (D,D) = (1,1) *)
  Alcotest.(check (list (pair int int))) "dd" [ (1, 1) ]
    (Normal_form.pure_nash Normal_form.prisoners_dilemma)

let test_matching_pennies_no_pure () =
  Alcotest.(check (list (pair int int))) "none" []
    (Normal_form.pure_nash Normal_form.matching_pennies)

let test_coordination_two_pure () =
  Alcotest.(check (list (pair int int))) "both corners" [ (0, 0); (1, 1) ]
    (Normal_form.pure_nash Normal_form.pure_coordination)

let test_battle_of_sexes_two_pure () =
  Alcotest.(check (list (pair int int))) "two equilibria" [ (0, 0); (1, 1) ]
    (Normal_form.pure_nash Normal_form.battle_of_sexes)

let test_chicken_pure () =
  (* chicken: (swerve, dare) and (dare, swerve) *)
  Alcotest.(check (list (pair int int))) "off-diagonal" [ (0, 1); (1, 0) ]
    (Normal_form.pure_nash Normal_form.chicken)

let test_pd_dominance () =
  (* cooperate is strictly dominated by defect for both: defect is the
     only best reply to either pure strategy *)
  let g = Normal_form.prisoners_dilemma in
  List.iter
    (fun k ->
      Alcotest.(check (list int)) "row" [ 1 ] (Normal_form.best_responses_row g k);
      Alcotest.(check (list int)) "col" [ 1 ] (Normal_form.best_responses_col g k))
    [ 0; 1 ]

let test_expected_payoff () =
  let g = Normal_form.prisoners_dilemma in
  let u, v = Normal_form.expected_payoff g [| 1.0; 0.0 |] [| 1.0; 0.0 |] in
  check_float "cc row" 3.0 u;
  check_float "cc col" 3.0 v;
  let u, _ = Normal_form.expected_payoff g [| 0.5; 0.5 |] [| 0.5; 0.5 |] in
  check_float "uniform mix" 2.25 u

let test_make_validates () =
  Alcotest.check_raises "ragged" (Invalid_argument "Normal_form.make: ragged matrix")
    (fun () ->
      ignore (Normal_form.make [| [| 1.0 |]; [| 1.0; 2.0 |] |] [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* ---------- Zerosum ---------- *)

let test_zerosum_pennies_value () =
  let s = Zerosum.solve ~iterations:20_000 [| [| 1.0; -1.0 |]; [| -1.0; 1.0 |] |] in
  Alcotest.(check bool) "value near 0" true (Float.abs (Zerosum.value_estimate s) < 0.02);
  Alcotest.(check bool) "gap shrinks" true (Zerosum.gap s < 0.05);
  Alcotest.(check bool) "mixed near half" true
    (Float.abs (s.Zerosum.row_strategy.(0) -. 0.5) < 0.05)

let test_zerosum_saddle () =
  (* dominant strategy game: row 1 dominates; saddle at (1,0) *)
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let s = Zerosum.solve ~iterations:2_000 a in
  Alcotest.(check bool) "value ~3" true (Float.abs (Zerosum.value_estimate s -. 3.0) < 0.05)

let test_zerosum_bracket_invariant () =
  let s = Zerosum.solve ~iterations:5_000 [| [| 2.0; -1.0; 0.5 |]; [| -1.0; 1.0; -0.5 |] |] in
  Alcotest.(check bool) "lower <= upper" true
    (s.Zerosum.value_lower <= s.Zerosum.value_upper +. 1e-9)

(* ---------- Nash ---------- *)

(* The equilibria of [g] that mix over both strategies of both players. *)
let interior_equilibria g =
  List.filter
    (fun { Nash.p; q } ->
      Array.for_all (fun x -> x > 1e-9) p && Array.for_all (fun x -> x > 1e-9) q)
    (Nash.support_enumeration g)

let test_nash_pennies_mixed () =
  match interior_equilibria Normal_form.matching_pennies with
  | [ { Nash.p; q } ] ->
    check_close "p" 0.5 p.(0);
    check_close "q" 0.5 q.(0)
  | _ -> Alcotest.fail "pennies has one mixed equilibrium"

let test_nash_pd_no_interior_mix () =
  Alcotest.(check int) "pd has no interior mix" 0
    (List.length (interior_equilibria Normal_form.prisoners_dilemma))

let test_nash_support_enumeration_bos () =
  (* battle of sexes: 2 pure + 1 mixed = 3 equilibria *)
  let eqs = Nash.support_enumeration Normal_form.battle_of_sexes in
  Alcotest.(check int) "three equilibria" 3 (List.length eqs);
  List.iter
    (fun pr ->
      Alcotest.(check bool) "each verifies" true
        (Nash.is_epsilon_nash Normal_form.battle_of_sexes pr ~epsilon:1e-5))
    eqs

let test_nash_support_enumeration_pd () =
  let eqs = Nash.support_enumeration Normal_form.prisoners_dilemma in
  Alcotest.(check int) "unique" 1 (List.length eqs);
  match eqs with
  | [ { Nash.p; q } ] ->
    check_close "row defects" 1.0 p.(1);
    check_close "col defects" 1.0 q.(1)
  | _ -> Alcotest.fail "expected one"

let test_nash_bos_mixed_values () =
  (* BoS mixed: row plays A with 2/3, col plays A with 1/3 *)
  match interior_equilibria Normal_form.battle_of_sexes with
  | [ { Nash.p; q } ] ->
    check_close "p" (2.0 /. 3.0) p.(0);
    check_close "q" (1.0 /. 3.0) q.(0)
  | _ -> Alcotest.fail "expected one mixed"

let test_nash_epsilon_check_rejects () =
  let bad = { Nash.p = [| 1.0; 0.0 |]; q = [| 1.0; 0.0 |] } in
  Alcotest.(check bool) "CC not nash in PD" false
    (Nash.is_epsilon_nash Normal_form.prisoners_dilemma bad ~epsilon:1e-6)

(* ---------- Auction ---------- *)

let bids l = List.mapi (fun i a -> { Auction.bidder = i; amount = a }) l

let test_auction_first_price () =
  let o = Auction.first_price (bids [ 3.0; 7.0; 5.0 ]) in
  Alcotest.(check (list (pair int (float 1e-9)))) "winner pays own" [ (1, 7.0) ]
    o.Auction.winners;
  check_float "revenue" 7.0 o.Auction.revenue

let test_auction_second_price () =
  let o = Auction.second_price (bids [ 3.0; 7.0; 5.0 ]) in
  Alcotest.(check (list (pair int (float 1e-9)))) "winner pays second" [ (1, 5.0) ]
    o.Auction.winners;
  check_float "revenue" 5.0 o.Auction.revenue

let test_auction_second_price_single () =
  let o = Auction.second_price (bids [ 4.0 ]) in
  Alcotest.(check (list (pair int (float 1e-9)))) "free" [ (0, 0.0) ] o.Auction.winners

let test_auction_tie_lowest_id () =
  let o = Auction.second_price (bids [ 5.0; 5.0 ]) in
  match o.Auction.winners with
  | [ (w, p) ] ->
    Alcotest.(check int) "lowest id" 0 w;
    check_float "pays tie" 5.0 p
  | _ -> Alcotest.fail "one winner"

let test_vickrey_truthful () =
  let others = bids [ 4.0; 6.0 ] in
  Alcotest.(check bool) "truthful dominant" true
    (Auction.truthful_is_dominant ~auction:Auction.second_price ~valuation:5.0
       ~bidder:99 ~others
       ~deviations:[ 0.0; 1.0; 3.0; 4.5; 5.5; 7.0; 10.0 ])

let test_first_price_not_truthful () =
  (* valuation 5 vs a single rival bidding 1: truthful wins at 5 (utility
     0), shading to 2 wins with utility 3 *)
  let others = [ { Auction.bidder = 0; amount = 1.0 } ] in
  Alcotest.(check bool) "shading beats truth" false
    (Auction.truthful_is_dominant ~auction:Auction.first_price ~valuation:5.0
       ~bidder:1 ~others ~deviations:[ 2.0 ])

let test_auction_validations () =
  Alcotest.check_raises "empty" (Invalid_argument "Auction.second_price: no bids")
    (fun () -> ignore (Auction.second_price []));
  Alcotest.check_raises "negative"
    (Invalid_argument "Auction.first_price: negative bid") (fun () ->
      ignore (Auction.first_price [ { Auction.bidder = 0; amount = -1.0 } ]))

(* ---------- Repeated ---------- *)

let pd = Normal_form.prisoners_dilemma

let test_repeated_allc_vs_alld () =
  let r = Repeated.play ~rounds:10 pd Repeated.all_cooperate Repeated.all_defect in
  check_float "sucker" 0.0 r.Repeated.payoff_a;
  check_float "exploiter" 50.0 r.Repeated.payoff_b

let test_repeated_tft_vs_alld () =
  (* TFT loses only the first round *)
  let r = Repeated.play ~rounds:10 pd Repeated.tit_for_tat Repeated.all_defect in
  check_float "tft" 9.0 r.Repeated.payoff_a;
  check_float "alld" 14.0 r.Repeated.payoff_b

let test_repeated_tft_mutual_cooperation () =
  let r = Repeated.play ~rounds:20 pd Repeated.tit_for_tat Repeated.tit_for_tat in
  check_float "full cooperation" 60.0 r.Repeated.payoff_a;
  check_float "coop rate" 1.0 (Repeated.cooperation_rate r)

let test_repeated_grim_punishes_forever () =
  (* a strategy that defects once at round 2 then cooperates *)
  let one_shot_defector =
    {
      Repeated.name = "sneak";
      first = 0;
      next =
        (fun ~own_history ~opp_history:_ ->
          if List.length own_history = 1 then 1 else 0);
    }
  in
  let r = Repeated.play ~rounds:10 pd Repeated.grim_trigger one_shot_defector in
  (* grim cooperates rounds 0-1, then defects to the end *)
  let grim_moves = List.map fst r.Repeated.moves in
  Alcotest.(check (list int)) "grim never forgives"
    [ 0; 0; 1; 1; 1; 1; 1; 1; 1; 1 ] grim_moves

let test_repeated_discounting () =
  let r =
    Repeated.play ~rounds:3 pd Repeated.all_cooperate Repeated.all_cooperate
  in
  (* no discounting: 3 + 3 + 3 *)
  check_float "undiscounted" 9.0 r.Repeated.payoff_a

let test_repeated_tournament_tft_beats_alld_population () =
  let roster =
    [ Repeated.tit_for_tat; Repeated.all_cooperate; Repeated.grim_trigger;
      Repeated.all_defect ]
  in
  (* round robin: a strategy's total over one match against each entrant *)
  let score s =
    List.fold_left
      (fun acc o -> acc +. (Repeated.play ~rounds:50 pd s o).Repeated.payoff_a)
      0.0 roster
  in
  (* in this cooperative-majority population, TFT outscores AllD *)
  Alcotest.(check bool) "tft > alld" true
    (score Repeated.tit_for_tat > score Repeated.all_defect)

let test_peering_game_one_shot_defects () =
  Alcotest.(check (list (pair int int))) "one-shot refusal" [ (1, 1) ]
    (Normal_form.pure_nash Normal_form.peering_game)

let test_peering_repeated_cooperates () =
  let r =
    Repeated.play ~rounds:100 Normal_form.peering_game Repeated.tit_for_tat
      Repeated.tit_for_tat
  in
  check_float "peering sustained" 1.0 (Repeated.cooperation_rate r)

(* ---------- Bestresponse ---------- *)

let test_bestresponse_pd () =
  let g =
    {
      Bestresponse.players = 2;
      strategies = [| 2; 2 |];
      payoff =
        (fun p profile ->
          let own = profile.(p) and other = profile.(1 - p) in
          fst (Normal_form.payoff pd own other));
    }
  in
  (match Bestresponse.converge g ~init:[| 0; 0 |] with
  | Some profile -> Alcotest.(check (array int)) "dd" [| 1; 1 |] profile
  | None -> Alcotest.fail "cycled");
  Alcotest.(check int) "one pure nash" 1 (List.length (Bestresponse.all_pure_nash g));
  check_float "welfare at dd" 2.0 (Bestresponse.social_welfare g [| 1; 1 |])

let test_bestresponse_cycle_detected () =
  (* matching pennies cycles under best response *)
  let mp = Normal_form.matching_pennies in
  let g =
    {
      Bestresponse.players = 2;
      strategies = [| 2; 2 |];
      payoff =
        (fun p profile ->
          let u, v = Normal_form.payoff mp profile.(0) profile.(1) in
          if p = 0 then u else v);
    }
  in
  Alcotest.(check bool) "cycles" true
    (Bestresponse.converge g ~init:[| 0; 0 |] = None);
  Alcotest.(check int) "no pure nash" 0 (List.length (Bestresponse.all_pure_nash g))

let test_bestresponse_validation () =
  let bad = { Bestresponse.players = 0; strategies = [||]; payoff = (fun _ _ -> 0.0) } in
  Alcotest.check_raises "no players"
    (Invalid_argument "Bestresponse: non-positive players") (fun () ->
      Bestresponse.validate bad)

(* ---------- qcheck properties ---------- *)

let prop_vickrey_truthful_random =
  QCheck2.Test.make ~name:"vickrey truthfulness (random instances)" ~count:300
    QCheck2.Gen.(
      triple (float_bound_exclusive 10.0)
        (list_size (int_range 1 6) (float_bound_exclusive 10.0))
        (list_size (int_range 1 6) (float_bound_exclusive 10.0)))
    (fun (valuation, other_amounts, deviations) ->
      let others =
        List.mapi (fun i a -> { Auction.bidder = i + 1; amount = a }) other_amounts
      in
      Auction.truthful_is_dominant ~auction:Auction.second_price ~valuation
        ~bidder:0 ~others ~deviations)

let prop_zerosum_bracket =
  QCheck2.Test.make ~name:"fictitious play brackets the value" ~count:50
    QCheck2.Gen.(
      array_size (int_range 2 4)
        (array_size (int_range 2 4) (float_range (-5.0) 5.0)))
    (fun a ->
      (* make rectangular: crop rows to the min length *)
      let m = Array.fold_left (fun acc r -> min acc (Array.length r)) max_int a in
      let a = Array.map (fun r -> Array.sub r 0 m) a in
      let s = Zerosum.solve ~iterations:500 a in
      s.Zerosum.value_lower <= s.Zerosum.value_upper +. 1e-6)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_vickrey_truthful_random; prop_zerosum_bracket ]

(* ---------- coverage sweep ---------- *)

let test_repeated_average_payoffs () =
  let r = Repeated.play ~rounds:10 pd Repeated.all_cooperate Repeated.all_cooperate in
  check_float "avg a" 3.0 (r.Repeated.payoff_a /. 10.0);
  check_float "avg b" 3.0 (r.Repeated.payoff_b /. 10.0)

let test_zerosum_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Zerosum.solve: empty matrix")
    (fun () -> ignore (Zerosum.solve [||]));
  Alcotest.check_raises "iters"
    (Invalid_argument "Zerosum.solve: non-positive iterations") (fun () ->
      ignore (Zerosum.solve ~iterations:0 [| [| 1.0 |] |]))

let test_best_responses () =
  Alcotest.(check (list int)) "row br vs C" [ 1 ]
    (Normal_form.best_responses_row pd 0);
  Alcotest.(check (list int)) "col br vs D" [ 1 ]
    (Normal_form.best_responses_col pd 1)

let test_auction_utility () =
  (* losing bidder: zero utility *)
  check_float "loser" 0.0
    (Auction.utility ~auction:Auction.second_price ~valuation:3.0 ~bid:3.0
       ~bidder:0 ~others:[ { Auction.bidder = 1; amount = 9.0 } ]);
  (* winner pays second price *)
  check_float "winner" 4.0
    (Auction.utility ~auction:Auction.second_price ~valuation:9.0 ~bid:9.0
       ~bidder:0 ~others:[ { Auction.bidder = 1; amount = 5.0 } ])

let () =
  Alcotest.run "gametheory"
    [
      ( "linalg",
        [
          Alcotest.test_case "solve" `Quick test_linalg_solve;
          Alcotest.test_case "singular" `Quick test_linalg_singular;
        ] );
      ( "normal-form",
        [
          Alcotest.test_case "pd pure nash" `Quick test_pd_pure_nash;
          Alcotest.test_case "pennies no pure" `Quick test_matching_pennies_no_pure;
          Alcotest.test_case "coordination" `Quick test_coordination_two_pure;
          Alcotest.test_case "battle of sexes" `Quick test_battle_of_sexes_two_pure;
          Alcotest.test_case "chicken" `Quick test_chicken_pure;
          Alcotest.test_case "pd dominance" `Quick test_pd_dominance;
          Alcotest.test_case "expected payoff" `Quick test_expected_payoff;
          Alcotest.test_case "validation" `Quick test_make_validates;
        ] );
      ( "zerosum",
        [
          Alcotest.test_case "pennies value" `Quick test_zerosum_pennies_value;
          Alcotest.test_case "saddle point" `Quick test_zerosum_saddle;
          Alcotest.test_case "bracket invariant" `Quick test_zerosum_bracket_invariant;
        ] );
      ( "nash",
        [
          Alcotest.test_case "pennies mixed" `Quick test_nash_pennies_mixed;
          Alcotest.test_case "pd no interior" `Quick test_nash_pd_no_interior_mix;
          Alcotest.test_case "support enum bos" `Quick test_nash_support_enumeration_bos;
          Alcotest.test_case "support enum pd" `Quick test_nash_support_enumeration_pd;
          Alcotest.test_case "bos mixed values" `Quick test_nash_bos_mixed_values;
          Alcotest.test_case "epsilon rejects" `Quick test_nash_epsilon_check_rejects;
        ] );
      ( "auction",
        [
          Alcotest.test_case "first price" `Quick test_auction_first_price;
          Alcotest.test_case "second price" `Quick test_auction_second_price;
          Alcotest.test_case "single bidder" `Quick test_auction_second_price_single;
          Alcotest.test_case "tie break" `Quick test_auction_tie_lowest_id;
          Alcotest.test_case "vickrey truthful" `Quick test_vickrey_truthful;
          Alcotest.test_case "first price not truthful" `Quick
            test_first_price_not_truthful;
          Alcotest.test_case "validations" `Quick test_auction_validations;
        ] );
      ( "repeated",
        [
          Alcotest.test_case "allc vs alld" `Quick test_repeated_allc_vs_alld;
          Alcotest.test_case "tft vs alld" `Quick test_repeated_tft_vs_alld;
          Alcotest.test_case "tft mutual" `Quick test_repeated_tft_mutual_cooperation;
          Alcotest.test_case "grim punishes" `Quick test_repeated_grim_punishes_forever;
          Alcotest.test_case "discounting" `Quick test_repeated_discounting;
          Alcotest.test_case "tournament" `Quick
            test_repeated_tournament_tft_beats_alld_population;
          Alcotest.test_case "peering one-shot" `Quick test_peering_game_one_shot_defects;
          Alcotest.test_case "peering repeated" `Quick test_peering_repeated_cooperates;
        ] );
      ( "bestresponse",
        [
          Alcotest.test_case "pd converges" `Quick test_bestresponse_pd;
          Alcotest.test_case "pennies cycles" `Quick test_bestresponse_cycle_detected;
          Alcotest.test_case "validation" `Quick test_bestresponse_validation;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "average payoffs" `Quick test_repeated_average_payoffs;
          Alcotest.test_case "zerosum validation" `Quick test_zerosum_validation;
          Alcotest.test_case "best responses" `Quick test_best_responses;
          Alcotest.test_case "auction utility" `Quick test_auction_utility;
        ] );
      ("properties", qcheck_cases);
    ]
