(* Dedicated market battery: grid regression cases for the price-grid
   off-by-one, determinism over every result field, structural
   invariants, and a population-scale stability property.

   (test_econ.ml keeps the economic-shape tests — Salop benchmark,
   lock-in raises markup, etc.; this file owns the mechanics.) *)

module Rng = Tussle_prelude.Rng
module Stats = Tussle_prelude.Stats
module Market = Tussle_econ.Market

let check_float = Alcotest.(check (float 1e-9))

let run ?(seed = 42) cfg = Market.run (Rng.create seed) cfg

(* ---------- price grid ---------- *)

(* Regression: (ceiling - floor) / step truncated to 99 for the default
   10.0 / 0.1 span, so the ceiling was never on the grid and a
   monopolist could not post it. *)
let test_grid_reaches_ceiling_step_01 () =
  let grid = Market.price_grid Market.default_config in
  Alcotest.(check int) "101 points" 101 (Array.length grid);
  check_float "first is floor" Market.default_config.Market.price_floor grid.(0);
  check_float "last is ceiling exactly"
    Market.default_config.Market.price_ceiling
    grid.(Array.length grid - 1)

let test_grid_reaches_ceiling_step_03 () =
  (* 0.3 does not divide 10: the final interval is shorter than the
     step, but the ceiling must still be the last point *)
  let cfg = { Market.default_config with Market.price_step = 0.3 } in
  let grid = Market.price_grid cfg in
  let g = Array.length grid in
  check_float "last is ceiling exactly" cfg.Market.price_ceiling grid.(g - 1);
  Alcotest.(check bool) "penultimate below ceiling" true
    (grid.(g - 2) < cfg.Market.price_ceiling)

let test_grid_sorted_and_bounded () =
  List.iter
    (fun step ->
      let cfg = { Market.default_config with Market.price_step = step } in
      let grid = Market.price_grid cfg in
      Array.iteri
        (fun i p ->
          Alcotest.(check bool) "within bounds" true
            (p >= cfg.Market.price_floor && p <= cfg.Market.price_ceiling);
          if i > 0 then
            Alcotest.(check bool) "strictly increasing" true (p > grid.(i - 1)))
        grid)
    [ 0.1; 0.3; 0.25; 1.0; 3.0 ]

let test_degenerate_grid () =
  (* floor = ceiling is a legal one-point grid *)
  let cfg =
    { Market.default_config with Market.price_floor = 2.0; price_ceiling = 2.0 }
  in
  let grid = Market.price_grid cfg in
  Alcotest.(check int) "one point" 1 (Array.length grid);
  check_float "the point" 2.0 grid.(0)

(* Regression: with the ceiling off-grid, a monopolist facing slack WTP
   capped out one step below the ceiling. *)
let test_monopoly_reaches_ceiling () =
  let cfg =
    {
      Market.default_config with
      Market.n_providers = 1;
      Market.wtp = 20.0 (* slack: ceiling-priced service still worth it *);
    }
  in
  let r = run cfg in
  check_float "monopoly posts the ceiling" cfg.Market.price_ceiling
    r.Market.mean_price;
  Alcotest.(check bool) "everyone still subscribes" true
    (r.Market.subscribed_ratio > 0.99)

let test_monopoly_price_on_grid () =
  (* with one provider, mean_price is that provider's posted price and
     must be a grid member (the snapped-anchor / best-response
     invariant observed from outside) *)
  let cfg = { Market.default_config with Market.n_providers = 1 } in
  let grid = Market.price_grid cfg in
  let r = run cfg in
  Alcotest.(check bool) "posted price is a grid member" true
    (Array.exists (fun p -> p = r.Market.mean_price) grid)

(* ---------- determinism ---------- *)

let test_deterministic_all_fields () =
  let cfg = { Market.default_config with Market.switching_cost = 1.0 } in
  let a = run ~seed:7 cfg and b = run ~seed:7 cfg in
  check_float "mean_price" a.Market.mean_price b.Market.mean_price;
  check_float "mean_markup" a.Market.mean_markup b.Market.mean_markup;
  check_float "churn_rate" a.Market.churn_rate b.Market.churn_rate;
  check_float "consumer_surplus" a.Market.consumer_surplus
    b.Market.consumer_surplus;
  check_float "provider_profit" a.Market.provider_profit b.Market.provider_profit;
  check_float "hhi" a.Market.hhi b.Market.hhi;
  check_float "subscribed_ratio" a.Market.subscribed_ratio
    b.Market.subscribed_ratio;
  Alcotest.(check (array (float 1e-9)))
    "price_history" a.Market.price_history b.Market.price_history

(* ---------- invariants ---------- *)

let check_invariants cfg r =
  Alcotest.(check bool) "subscribed_ratio in [0,1]" true
    (r.Market.subscribed_ratio >= 0.0 && r.Market.subscribed_ratio <= 1.0);
  Alcotest.(check bool) "hhi in [0,1]" true
    (r.Market.hhi >= 0.0 && r.Market.hhi <= 1.0);
  Alcotest.(check bool) "churn_rate in [0,1]" true
    (r.Market.churn_rate >= 0.0 && r.Market.churn_rate <= 1.0);
  Alcotest.(check bool) "mean price within grid bounds" true
    (r.Market.mean_price >= cfg.Market.price_floor
    && r.Market.mean_price <= cfg.Market.price_ceiling);
  Array.iter
    (fun p ->
      Alcotest.(check bool) "history within grid bounds" true
        (p >= cfg.Market.price_floor && p <= cfg.Market.price_ceiling))
    r.Market.price_history;
  Alcotest.(check int) "history length" cfg.Market.periods
    (Array.length r.Market.price_history)

let test_invariants_across_configs () =
  List.iter
    (fun cfg -> check_invariants cfg (run cfg))
    [
      Market.default_config;
      { Market.default_config with Market.n_providers = 1 };
      { Market.default_config with Market.n_providers = 16 };
      { Market.default_config with Market.switching_cost = 3.0 };
      { Market.default_config with Market.wtp = 0.5 (* most stay out *) };
      { Market.default_config with Market.price_step = 0.3 };
    ]

let test_prohibitive_switching_cost_freezes_churn () =
  (* switching can never pay when it costs more than the whole utility
     on offer: churn must be exactly zero *)
  let cfg =
    { Market.default_config with Market.switching_cost = 100.0 }
  in
  let r = run cfg in
  check_float "zero churn" 0.0 r.Market.churn_rate

(* ---------- validation ---------- *)

let raises_invalid_arg what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

(* Regression: a NaN price bound died on [Assert_failure], a NaN step
   returned garbage and an infinite ceiling a mean price of infinity.
   Each float field is checked on its own. *)
let non_finite_cases =
  let d = Market.default_config in
  [
    ("wtp", fun x -> { d with Market.wtp = x });
    ("transport_cost", fun x -> { d with Market.transport_cost = x });
    ("switching_cost", fun x -> { d with Market.switching_cost = x });
    ("provider_cost", fun x -> { d with Market.provider_cost = x });
    ("price_floor", fun x -> { d with Market.price_floor = x });
    ("price_ceiling", fun x -> { d with Market.price_ceiling = x });
    ("price_step", fun x -> { d with Market.price_step = x });
  ]
  |> List.map (fun (name, set) ->
         Alcotest.test_case ("non-finite " ^ name) `Quick (fun () ->
             List.iter
               (fun x ->
                 raises_invalid_arg
                   (Printf.sprintf "%s = %g" name x)
                   (fun () -> run (set x)))
               [ nan; infinity; neg_infinity ]))

(* Regression: a step of 1e-300 overflowed the point count and
   silently collapsed the grid. *)
let test_grid_too_large () =
  List.iter
    (fun (floor, ceiling, step) ->
      raises_invalid_arg
        (Printf.sprintf "grid %g..%g step %g" floor ceiling step)
        (fun () ->
          run
            { Market.default_config with
              Market.price_floor = floor; price_ceiling = ceiling;
              price_step = step }))
    [ (0.0, 10.0, 1e-300); (0.0, 10.0, 1e-17); (-1e308, 1e308, 1.0) ]

(* ---------- bit-exact pins ---------- *)

(* Every [result] field of the sweep-scale E1 configs (the five
   addressing schemes' switching costs) and the E3 market structures,
   at n = 2,000 on the battery seeds, printed with [%h] so any change
   to the arithmetic or its order shows.  [price_history] is
   run-length encoded as [value*periods].  The battery prints two
   decimals, so these are what keep kernel rewrites honest. *)
let render r =
  let h = r.Market.price_history in
  let n = Array.length h in
  let runs = ref [] and i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && Int64.bits_of_float h.(!j + 1) = Int64.bits_of_float h.(!i) do
      incr j
    done;
    runs := Printf.sprintf "%h*%d" h.(!i) (!j - !i + 1) :: !runs;
    i := !j + 1
  done;
  List.map (Printf.sprintf "%h")
    [
      r.Market.mean_price; r.Market.mean_markup; r.Market.churn_rate;
      r.Market.consumer_surplus; r.Market.provider_profit; r.Market.hhi;
      r.Market.subscribed_ratio;
    ]
  @ [ String.concat " " (List.rev !runs) ]

let e1_pins =
  [
    ( 0.0,
      [
        "0x1.8p+0";
        "0x1p-1";
        "0x0p+0";
        "0x1.05cc5efda91cap+14";
        "0x1.f4p+9";
        "0x1.00cf398e97072p-2";
        "0x1p+0";
        "0x1.8p+0*30";
      ] );
    ( 0.5,
      [
        "0x1.0cccccccccccdp+1";
        "0x1.199999999999ap+0";
        "0x1.1a0902de00d1bp-2";
        "0x1.e2d4e06b730fp+13";
        "0x1.1b3ffffffffbfp+11";
        "0x1.12658c4bd33d2p-2";
        "0x1p+0";
        "0x1.8p+0*1 0x1.1333333333333p+1*1 0x1.6666666666666p+1*1 \
         0x1.2cccccccccccdp+1*1 0x1.e666666666668p+0*1 0x1.3333333333334p+1*1 \
         0x1.0333333333334p+1*1 0x1.d99999999999ap+0*1 0x1.2cccccccccccdp+1*1 \
         0x1p+1*1 0x1.b333333333334p+0*1 0x1.399999999999ap+1*1 \
         0x1.1666666666667p+1*1 0x1.1p+1*1 0x1.0cccccccccccdp+1*1 \
         0x1.ecccccccccccep+0*1 0x1.4666666666667p+1*1 0x1.2666666666667p+1*1 \
         0x1.4333333333334p+1*1 0x1.0666666666667p+1*1 0x1.1333333333334p+1*1 \
         0x1.d333333333334p+0*1 0x1p+1*1 0x1.299999999999ap+1*1 \
         0x1.e666666666666p+0*1 0x1.ap+0*1 0x1.0666666666667p+1*1 \
         0x1.e666666666667p+0*1 0x1.499999999999ap+1*1 0x1.0cccccccccccdp+1*1";
      ] );
    ( 1.0,
      [
        "0x1.b333333333334p+0";
        "0x1.6666666666668p-1";
        "0x1.07c84b5dcc63fp-4";
        "0x1.ee46ca63de8b5p+13";
        "0x1.a4d9999999919p+10";
        "0x1.63d9cae21101ap-2";
        "0x1p+0";
        "0x1.8p+0*1 0x1.6p+1*1 0x1.ccccccccccccdp+1*1 \
         0x1.9000000000001p+1*1 0x1.ap+0*1 0x1.5cccccccccccdp+1*1 \
         0x1.cp+0*1 0x1.f99999999999ap+0*1 0x1.599999999999ap+1*1 \
         0x1.1333333333334p+1*1 0x1.a99999999999ap+1*1 0x1.4p+1*1 \
         0x1.9000000000001p+1*1 0x1.cp+0*1 0x1.a666666666668p+0*1 \
         0x1.d333333333334p+0*1 0x1.7000000000001p+1*1 0x1.9cccccccccccdp+1*1 \
         0x1.3p+1*1 0x1.ep+0*1 0x1.b333333333334p+0*10";
      ] );
    ( 3.0,
      [
        "0x1.8cccccccccccep+1";
        "0x1.0cccccccccccep+1";
        "0x0p+0";
        "0x1.7c038d9dec184p+13";
        "0x1.4450000000037p+12";
        "0x1.834edb2f661f2p-2";
        "0x1p+0";
        "0x1.8p+0*1 0x1.5p+2*1 0x1.3cccccccccccdp+2*1 \
         0x1.1333333333334p+2*1 0x1.e666666666667p+1*1 0x1.a666666666666p+1*1 \
         0x1.999999999999ap+1*1 0x1.8cccccccccccep+1*23";
      ] );
    ( 6.0,
      [
        "0x1.3666666666667p+3";
        "0x1.1666666666667p+3";
        "0x0p+0";
        "0x1.6317bf6a472b9p+8";
        "0x1.0fe00000000b2p+14";
        "0x1.00cf398e97072p-2";
        "0x1p+0";
        "0x1.8p+0*1 0x1.019999999999ap+3*1 0x1.3666666666667p+3*28";
      ] );
  ]

let e3_pins =
  [
    ( 1,
      [
        "0x1.2p+3";
        "0x1p+3";
        "0x0p+0";
        "0x1.f32f37e5893d1p+9";
        "0x1.f4p+13";
        "0x1p+0";
        "0x1p+0";
        "0x1.2p+3*30";
      ] );
    ( 2,
      [
        "0x1.0666666666666p+1";
        "0x1.0ccccccccccccp+0";
        "0x1.89374bc6a7efap-4";
        "0x1.e17f508a9e8ebp+13";
        "0x1.052ffffffffb9p+11";
        "0x1.02d288ce703bp-1";
        "0x1p+0";
        "0x1.0666666666666p+1*30";
      ] );
    ( 4,
      [
        "0x1.8p+0";
        "0x1p-1";
        "0x0p+0";
        "0x1.05c64dbea8339p+14";
        "0x1.f4p+9";
        "0x1.0011f4f50a02cp-2";
        "0x1p+0";
        "0x1.8p+0*30";
      ] );
    ( 8,
      [
        "0x1.3cccccccccccep+0";
        "0x1.e66666666667p-3";
        "0x0p+0";
        "0x1.0fe54a1b86ad8p+14";
        "0x1.d219999999939p+8";
        "0x1.03bf727136a4p-3";
        "0x1p+0";
        "0x1.4666666666667p+0*1 0x1.4333333333334p+0*1 0x1.3cccccccccccep+0*28";
      ] );
    ( 16,
      [
        "0x1.1999999999999p+0";
        "0x1.999999999999p-4";
        "0x0p+0";
        "0x1.15215c8e232dfp+14";
        "0x1.8ffffffffff07p+7";
        "0x1.014727dcbddb9p-4";
        "0x1p+0";
        "0x1.1999999999999p+0*30";
      ] );
  ]

(* E1 runs the five switching costs on seed 1001, E3 the five market
   structures on seed 1003. *)
let check_e1_pins ~n pins =
  List.iter
    (fun (sc, expected) ->
      let cfg =
        { Market.default_config with Market.switching_cost = sc; n_consumers = n }
      in
      Alcotest.(check (list string))
        (Printf.sprintf "E1 switching cost %g, n = %d" sc n)
        expected
        (render (run ~seed:1001 cfg)))
    pins

let check_e3_pins ~n pins =
  List.iter
    (fun (m, expected) ->
      let cfg =
        { Market.default_config with Market.n_providers = m; n_consumers = n }
      in
      Alcotest.(check (list string))
        (Printf.sprintf "E3 %d providers, n = %d" m n)
        expected
        (render (run ~seed:1003 cfg)))
    pins

let test_pinned_e1 () = check_e1_pins ~n:2_000 e1_pins

let test_pinned_e3 () = check_e3_pins ~n:2_000 e3_pins

(* The battery's own E1 and E3 runs, n = 100,000 on seeds 1001 and
   1003: the scale at which the consumer sort and the incremental base
   do their work. *)
let e1_battery_pins =
  [
    ( 0.0,
      [
        "0x1.8p+0";
        "0x1p-1";
        "0x0p+0";
        "0x1.98ecb5f1b6174p+19";
        "0x1.86ap+15";
        "0x1.0000a3c93050ap-2";
        "0x1p+0";
        "0x1.8p+0*30";
      ] );
    ( 0.5,
      [
        "0x1.099999999999ap+1";
        "0x1.1333333333334p+0";
        "0x1.879fa97e132b5p-3";
        "0x1.7c7421e3ddadcp+19";
        "0x1.8cb7e666662f9p+16";
        "0x1.1d96b944a3abcp-2";
        "0x1p+0";
        "0x1.8p+0*1 0x1.1p+1*1 0x1.6p+1*1 \
         0x1.0cccccccccccdp+1*1 0x1.3333333333334p+1*1 0x1.3666666666667p+1*1 \
         0x1.d99999999999ap+0*1 0x1.6p+1*1 0x1.1cccccccccccdp+1*1 \
         0x1.5cccccccccccdp+1*1 0x1.ecccccccccccep+0*1 0x1.f99999999999bp+0*1 \
         0x1.d99999999999bp+0*1 0x1.4666666666667p+1*1 0x1.0cccccccccccdp+1*1 \
         0x1.4p+1*1 0x1.099999999999ap+1*1 0x1.799999999999ap+0*1 \
         0x1.2cccccccccccdp+1*1 0x1.cp+0*1 0x1.6p+1*1 \
         0x1.0333333333333p+1*1 0x1.4cccccccccccdp+1*1 0x1.c666666666666p+0*1 \
         0x1.099999999999ap+1*1 0x1.d99999999999ap+0*1 0x1.3666666666667p+1*1 \
         0x1.c666666666667p+0*1 0x1.3cccccccccccep+1*1 0x1.099999999999ap+1*1";
      ] );
    ( 1.0,
      [
        "0x1.7000000000001p+1";
        "0x1.e000000000002p+0";
        "0x1.3c393682730c6p-5";
        "0x1.4d9af041d2e9dp+19";
        "0x1.7edb999998de2p+17";
        "0x1.1b2534b6ceb04p-2";
        "0x1p+0";
        "0x1.8p+0*1 0x1.6p+1*1 0x1.ccccccccccccdp+1*1 \
         0x1.9333333333334p+1*1 0x1.9333333333334p+0*1 0x1.ecccccccccccdp+0*1 \
         0x1.f333333333334p+0*1 0x1.199999999999ap+1*1 0x1.ep+0*1 \
         0x1.b99999999999ap+0*1 0x1.9333333333334p+1*1 0x1.399999999999ap+1*1 \
         0x1.f99999999999ap+0*1 0x1.5333333333334p+1*1 0x1.3cccccccccccdp+1*1 \
         0x1.099999999999ap+1*1 0x1.d666666666667p+1*1 0x1.5666666666667p+1*1 \
         0x1.3p+1*1 0x1.dp+1*1 0x1.499999999999ap+1*1 \
         0x1p+1*1 0x1.d666666666666p+1*1 0x1.5666666666667p+1*1 \
         0x1.199999999999ap+1*1 0x1.f333333333334p+1*1 0x1.6cccccccccccdp+1*1 \
         0x1.2p+1*1 0x1.f666666666666p+1*1 0x1.7000000000001p+1*1";
      ] );
    ( 3.0,
      [
        "0x1.8cccccccccccep+1";
        "0x1.0cccccccccccep+1";
        "0x0p+0";
        "0x1.293aa6bbac294p+19";
        "0x1.fc048000036fep+17";
        "0x1.7f76d1a64cf1ap-2";
        "0x1p+0";
        "0x1.8p+0*1 0x1.5p+2*1 0x1.3cccccccccccdp+2*1 \
         0x1.1333333333334p+2*1 0x1.e666666666667p+1*1 0x1.a666666666666p+1*1 \
         0x1.999999999999ap+1*1 0x1.8cccccccccccep+1*23";
      ] );
    ( 6.0,
      [
        "0x1.3666666666667p+3";
        "0x1.1666666666667p+3";
        "0x0p+0";
        "0x1.1116be36c37cbp+14";
        "0x1.a8cdfffffd287p+19";
        "0x1.0000a3c93050ap-2";
        "0x1p+0";
        "0x1.8p+0*1 0x1.019999999999ap+3*1 0x1.3666666666667p+3*28";
      ] );
  ]

let e3_battery_pins =
  [
    ( 1,
      [
        "0x1.2p+3";
        "0x1p+3";
        "0x0p+0";
        "0x1.85eb61a53e215p+15";
        "0x1.86ap+19";
        "0x1p+0";
        "0x1p+0";
        "0x1.2p+3*30";
      ] );
    ( 2,
      [
        "0x1p+1";
        "0x1p+0";
        "0x0p+0";
        "0x1.7a6cd0ea0a679p+19";
        "0x1.86ap+16";
        "0x1.0000b6b431a06p-1";
        "0x1p+0";
        "0x1p+1*30";
      ] );
    ( 4,
      [
        "0x1.8p+0";
        "0x1p-1";
        "0x0p+0";
        "0x1.98ed4218dd3dfp+19";
        "0x1.86ap+15";
        "0x1.0001329ed2826p-2";
        "0x1p+0";
        "0x1.8p+0*30";
      ] );
    ( 8,
      [
        "0x1.4cccccccccccdp+0";
        "0x1.3333333333334p-2";
        "0x0p+0";
        "0x1.a5c3661a82c57p+19";
        "0x1.d4bffffffcaf9p+14";
        "0x1.00020e2feb159p-3";
        "0x1p+0";
        "0x1.4cccccccccccdp+0*30";
      ] );
    ( 16,
      [
        "0x1.1999999999999p+0";
        "0x1.999999999999p-4";
        "0x0p+0";
        "0x1.b10b5b8f8e247p+19";
        "0x1.388000000287ap+13";
        "0x1.0007415bcdadbp-4";
        "0x1p+0";
        "0x1.1999999999999p+0*30";
      ] );
  ]

let test_pinned_battery () =
  check_e1_pins ~n:100_000 e1_battery_pins;
  check_e3_pins ~n:100_000 e3_battery_pins

(* ---------- naive oracle (qcheck) ---------- *)

(* The model written out the slow way: positions in draw order, the
   utility base recomputed from the subscriptions for every use, and
   demand at every grid price counted consumer by consumer from the
   strict rule "c buys from j at price p iff base_j(c) - p >
   max(0, alt)", where [alt] is c's best utility from the other
   providers at their current prices.  O(n * m * grid) per best
   response; no sorting, bucketing, histogram, incremental base or
   replay of stable periods.

   The rule is evaluated in the form the model defines it,
   [p < base_j(c) - max(0, alt)].  The algebraically equal
   [base_j(c) - p > max(0, alt)] rounds differently where the
   threshold lands on a grid point, which happens structurally (a
   consumer whose best alternative lies beyond [j] has a threshold of
   transport_cost / m plus a grid price): on 3,000 random configs of
   [small_config_gen] that form disagrees with [Market.run] on 60. *)
let naive_run rng cfg =
  let open Market in
  let n = cfg.n_consumers and m = cfg.n_providers in
  let grid = price_grid cfg in
  let g = Array.length grid in
  let pos = Array.init n (fun _ -> Rng.float rng 1.0) in
  let dist c k =
    let d = Float.abs (pos.(c) -. (float_of_int k /. float_of_int m)) in
    Float.min d (1.0 -. d)
  in
  let current = Array.make n (-1) in
  let base c k =
    let pain =
      if current.(c) >= 0 && current.(c) <> k then cfg.switching_cost else 0.0
    in
    cfg.wtp -. (cfg.transport_cost *. dist c k) -. pain
  in
  let idx =
    let i =
      int_of_float
        (Float.round ((salop_price cfg -. cfg.price_floor) /. cfg.price_step))
    in
    Array.make m (max 0 (min (g - 1) i))
  in
  let price k = grid.(idx.(k)) in
  let history = Array.make cfg.periods 0.0 in
  let switches = ref 0 and counted = ref 0 in
  let choice = Array.make n (-1) and utility = Array.make n 0.0 in
  for period = 0 to cfg.periods - 1 do
    for j = 0 to m - 1 do
      let alt =
        Array.init n (fun c ->
            let a = ref 0.0 in
            for k = 0 to m - 1 do
              if k <> j then a := Float.max !a (base c k -. price k)
            done;
            !a)
      in
      let profit i =
        let d = ref 0 in
        for c = 0 to n - 1 do
          if grid.(i) < base c j -. alt.(c) then incr d
        done;
        float_of_int !d *. (grid.(i) -. cfg.provider_cost)
      in
      let best = ref idx.(j) in
      let best_profit = ref (profit idx.(j)) in
      for i = 0 to g - 1 do
        let p = profit i in
        if p > !best_profit +. 1e-9 then begin
          best := i;
          best_profit := p
        end
      done;
      idx.(j) <- !best
    done;
    (* the best positive utility, the lowest provider index on ties *)
    for c = 0 to n - 1 do
      choice.(c) <- -1;
      utility.(c) <- 0.0;
      for k = 0 to m - 1 do
        let u = base c k -. price k in
        if u > utility.(c) then begin
          choice.(c) <- k;
          utility.(c) <- u
        end
      done
    done;
    if period >= cfg.periods / 3 then begin
      incr counted;
      for c = 0 to n - 1 do
        if choice.(c) >= 0 && current.(c) >= 0 && choice.(c) <> current.(c)
        then incr switches
      done
    end;
    Array.blit choice 0 current 0 n;
    history.(period) <- Stats.mean (Array.init m price)
  done;
  let surplus = ref 0.0 and profit = ref 0.0 and subs = Array.make m 0 in
  Array.iteri
    (fun c k ->
      if k >= 0 then begin
        surplus := !surplus +. utility.(c);
        profit := !profit +. (price k -. cfg.provider_cost);
        subs.(k) <- subs.(k) + 1
      end)
    current;
  let shares =
    Array.of_list
      (List.filter_map
         (fun s -> if s > 0 then Some (float_of_int s) else None)
         (Array.to_list subs))
  in
  let prices = Array.init m price in
  let subscribed = Array.fold_left (fun a k -> if k >= 0 then a + 1 else a) 0 current in
  {
    mean_price = Stats.mean prices;
    mean_markup = Stats.mean prices -. cfg.provider_cost;
    churn_rate =
      (if !counted = 0 then 0.0
       else float_of_int !switches /. float_of_int (n * !counted));
    consumer_surplus = !surplus;
    provider_profit = !profit;
    hhi = (if Array.length shares = 0 then 0.0 else Stats.hhi shares);
    subscribed_ratio = float_of_int subscribed /. float_of_int n;
    price_history = history;
  }

(* Small random configs, including the knife edges the fast path must
   get right: transport cost 0 (every consumer ties), switching costs
   0-4 and steps that do and do not divide the span. *)
let small_config_gen =
  QCheck2.Gen.(
    let* n = int_range 1 40 in
    let* m = int_range 1 5 in
    let* tc = oneofl [ 0.0; 0.5; 1.0; 2.0; 3.7 ] in
    let* sc = oneofl [ 0.0; 0.5; 1.0; 2.0; 3.0; 4.0 ] in
    let* step = oneofl [ 0.05; 0.25; 0.3; 1.0 ] in
    let* wtp = oneofl [ 0.5; 3.0; 10.0; 20.0 ] in
    let* cost = oneofl [ 0.0; 1.0 ] in
    let* ceiling = oneofl [ 3.0; 10.0 ] in
    let* periods = int_range 1 12 in
    let* seed = int_range 0 100_000 in
    return
      ( seed,
        {
          Market.n_consumers = n;
          n_providers = m;
          wtp;
          transport_cost = tc;
          switching_cost = sc;
          provider_cost = cost;
          periods;
          price_floor = 0.0;
          price_ceiling = ceiling;
          price_step = step;
        } ))

let prop_matches_naive =
  QCheck2.Test.make ~count:400 ~name:"run = naive oracle, every field (%h)"
    ~print:(fun (seed, c) ->
      Printf.sprintf "seed %d n %d m %d tc %g sc %g step %g wtp %g cost %g \
                      ceiling %g periods %d"
        seed c.Market.n_consumers c.n_providers c.transport_cost
        c.switching_cost c.price_step c.wtp c.provider_cost c.price_ceiling
        c.periods)
    small_config_gen
    (fun (seed, cfg) ->
      render (Market.run (Rng.create seed) cfg)
      = render (naive_run (Rng.create seed) cfg))

(* Past 4,096 consumers the sort caps its bucket count, so buckets
   hold several consumers in draw order; the random configs above
   never get there. *)
let test_matches_naive_capped_buckets () =
  List.iter
    (fun (m, tc, sc, step) ->
      let cfg =
        { Market.default_config with
          Market.n_consumers = 5_000; n_providers = m; transport_cost = tc;
          switching_cost = sc; price_step = step; periods = 4 }
      in
      Alcotest.(check (list string))
        (Printf.sprintf "m %d tc %g sc %g step %g" m tc sc step)
        (render (naive_run (Rng.create 17) cfg))
        (render (Market.run (Rng.create 17) cfg)))
    [ (3, 0.0, 0.0, 1.0); (4, 2.0, 0.5, 0.25); (5, 1.0, 3.0, 0.3) ]

(* ---------- allocation (native only) ---------- *)

(* At n = 20,000, m = 4 and switching cost 0.5 prices cycle for all
   30 periods, so the steady-state replay never kicks in.  A run may
   allocate its O(n*m) scratch and result once; the bound is linear in
   n and does not grow with [periods].  A boxed float anywhere in the
   per-consumer passes costs 2-4 words per consumer x provider x period
   (about 10^7 words here) and fails it. *)
let test_run_allocation_linear_in_n () =
  if Sys.backend_type = Sys.Native then begin
    let n = 20_000 and m = 4 in
    let cfg =
      { Market.default_config with
        Market.n_consumers = n; n_providers = m; switching_cost = 0.5 }
    in
    (* minor + major - promoted: every word allocated, including the
       scratch arrays too large for the minor heap.  The minor heap is
       emptied first: on OCaml 5.1 a minor collection inside the
       window over-counts minor words by up to the heap's unused part
       (the same run measured anywhere from 2.0e5 to 4.0e5 words,
       depending only on unrelated earlier allocation). *)
    let allocated () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let words cfg =
      let rng = Rng.create 5 in
      Gc.minor ();
      let before = allocated () in
      ignore (Market.run rng cfg);
      allocated () -. before
    in
    let bound = float_of_int (((m + 7) * n) + 4096) in
    let w = words cfg in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f words <= %.0f" w bound)
      true (w <= bound);
    let w2 = words { cfg with Market.periods = 2 * cfg.Market.periods } in
    Alcotest.(check bool)
      (Printf.sprintf "doubling periods: %.0f words <= %.0f" w2 bound)
      true (w2 <= bound)
  end

(* ---------- population-scale stability (qcheck) ---------- *)

(* The SoA rewrite exists to run the same economics at 100x the
   population: the equilibrium price must be a property of the
   configuration, not of the sample size.  10x the consumers, same
   seed family: the time-averaged price over the last third moves by at
   most a few grid steps (finite-sample demand noise).  The comparison
   averages the tail of [price_history] rather than the final-period
   snapshot because moderate switching costs produce Edgeworth price
   cycles whose *phase* at the horizon depends on the sample — the
   cycle's level is population-stable, the snapshot is not.  Large
   switching costs (around the transport cost and up) change the
   economics itself with population (lock-in territory width), so the
   property quantifies over the competitive-to-moderate range. *)
let prop_population_scale_stable =
  QCheck2.Test.make ~count:15 ~name:"10x consumers: mean price stable"
    QCheck2.Gen.(
      pair (int_range 1 1000) (int_range 0 3 (* switching cost in tenths *)))
    (fun (seed, sc10) ->
      let sc = float_of_int sc10 /. 10.0 in
      let cfg n =
        {
          Market.default_config with
          Market.n_consumers = n;
          Market.switching_cost = sc;
        }
      in
      let tail_mean r =
        let h = r.Market.price_history in
        let n = Array.length h in
        let k = 10 in
        let s = ref 0.0 in
        for i = n - k to n - 1 do
          s := !s +. h.(i)
        done;
        !s /. float_of_int k
      in
      let small = Market.run (Rng.create seed) (cfg 400) in
      let large = Market.run (Rng.create seed) (cfg 4000) in
      Float.abs (tail_mean small -. tail_mean large) <= 0.5)

let test_summary () =
  (* `tussle market` at its defaults: 4 providers, no lock-in, seed 42 *)
  let cfg = Market.default_config in
  Alcotest.(check string) "summary"
    "price      1.525 (salop benchmark 1.500)\n\
     markup     0.525\n\
     churn      16.5%\n\
     surplus    5014.3\n\
     profit     310.2\n\
     HHI        0.260\n"
    (Market.summary cfg (Market.run (Rng.create 42) cfg))

let () =
  Alcotest.run "market"
    [
      ( "grid",
        [
          Alcotest.test_case "ceiling on grid, step 0.1" `Quick
            test_grid_reaches_ceiling_step_01;
          Alcotest.test_case "ceiling on grid, step 0.3" `Quick
            test_grid_reaches_ceiling_step_03;
          Alcotest.test_case "sorted and bounded" `Quick
            test_grid_sorted_and_bounded;
          Alcotest.test_case "degenerate one-point grid" `Quick
            test_degenerate_grid;
          Alcotest.test_case "monopoly reaches ceiling" `Quick
            test_monopoly_reaches_ceiling;
          Alcotest.test_case "monopoly price on grid" `Quick
            test_monopoly_price_on_grid;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "all result fields" `Quick
            test_deterministic_all_fields;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "across configs" `Quick test_invariants_across_configs;
          Alcotest.test_case "prohibitive switching cost: zero churn" `Quick
            test_prohibitive_switching_cost_freezes_churn;
        ] );
      ( "validation",
        non_finite_cases
        @ [ Alcotest.test_case "grid too large" `Quick test_grid_too_large ] );
      ( "pinned",
        [
          Alcotest.test_case "E1 sweep configs, every field" `Quick test_pinned_e1;
          Alcotest.test_case "E3 structures, every field" `Quick test_pinned_e3;
          Alcotest.test_case "E1 and E3 battery runs, every field" `Quick
            test_pinned_battery;
          Alcotest.test_case "tussle market summary" `Quick test_summary;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_matches_naive;
          Alcotest.test_case "capped buckets, n = 5,000" `Quick
            test_matches_naive_capped_buckets;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "run is linear in n, flat in periods" `Quick
            test_run_allocation_linear_in_n;
        ] );
      ( "scale",
        [ QCheck_alcotest.to_alcotest prop_population_scale_stable ] );
    ]
