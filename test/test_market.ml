(* Dedicated market battery: grid regression cases for the price-grid
   off-by-one, determinism over every result field, structural
   invariants, and a population-scale stability property.

   (test_econ.ml keeps the economic-shape tests — Salop benchmark,
   lock-in raises markup, etc.; this file owns the mechanics.) *)

module Rng = Tussle_prelude.Rng
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

let test_pinned_e1 () =
  List.iter
    (fun (sc, expected) ->
      let cfg =
        { Market.default_config with Market.switching_cost = sc; n_consumers = 2_000 }
      in
      Alcotest.(check (list string))
        (Printf.sprintf "switching cost %g" sc)
        expected
        (render (run ~seed:1001 cfg)))
    e1_pins

let test_pinned_e3 () =
  List.iter
    (fun (m, expected) ->
      let cfg =
        { Market.default_config with Market.n_providers = m; n_consumers = 2_000 }
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%d providers" m)
        expected
        (render (run ~seed:1003 cfg)))
    e3_pins

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
       scratch arrays too large for the minor heap *)
    let allocated () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let words cfg =
      let rng = Rng.create 5 in
      let before = allocated () in
      ignore (Market.run rng cfg);
      allocated () -. before
    in
    let bound = float_of_int (((m + 8) * n) + 4096) in
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
      ( "pinned",
        [
          Alcotest.test_case "E1 sweep configs, every field" `Quick test_pinned_e1;
          Alcotest.test_case "E3 structures, every field" `Quick test_pinned_e3;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "run is linear in n, flat in periods" `Quick
            test_run_allocation_linear_in_n;
        ] );
      ( "scale",
        [ QCheck_alcotest.to_alcotest prop_population_scale_stable ] );
    ]
