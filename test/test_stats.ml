(* Pinned-value and property tests for Tussle_prelude.Stats.Test, in
   the style of pareto's tests_test.ml: known t statistics and
   p-values against reference values (computed with R/scipy and
   cross-checked against pareto's own pins), the alternatives
   consistency harness, and the degenerate zero-spread cases.  Plus
   qcheck properties for the descriptive Stats primitives the sweep
   layer leans on. *)

module Stats = Tussle_prelude.Stats
module Test = Tussle_prelude.Stats.Test

let check_close ?(epsilon = 1e-4) msg expected actual =
  Alcotest.(check (float epsilon)) msg expected actual

let alternative_name = function
  | Test.TwoSided -> "two-sided"
  | Test.Less -> "less"
  | Test.Greater -> "greater"

(* pareto's assert_equal_test_results: one expected (statistic,
   p-value) pair per alternative, in [TwoSided; Less; Greater]
   order. *)
let check_test_results ?(msg = "") f expected =
  List.iter2
    (fun (statistic, pvalue) alternative ->
      let r = f ~alternative in
      let tag suffix =
        if msg = "" then Printf.sprintf "%s %s" (alternative_name alternative) suffix
        else Printf.sprintf "%s, %s %s" msg (alternative_name alternative) suffix
      in
      check_close (tag "statistic") statistic r.Test.statistic;
      check_close (tag "p-value") pvalue r.Test.pvalue)
    expected
    [ Test.TwoSided; Test.Less; Test.Greater ]

(* ---------- special functions ---------- *)

let test_log_gamma () =
  (* lgamma(1) = lgamma(2) = 0, lgamma(5) = log 24, lgamma(0.5) =
     log sqrt(pi) *)
  check_close ~epsilon:1e-10 "lgamma 1" 0.0 (Test.log_gamma 1.0);
  check_close ~epsilon:1e-10 "lgamma 2" 0.0 (Test.log_gamma 2.0);
  check_close ~epsilon:1e-9 "lgamma 5" (log 24.0) (Test.log_gamma 5.0);
  check_close ~epsilon:1e-9 "lgamma 0.5"
    (0.5 *. log Float.pi)
    (Test.log_gamma 0.5)

let test_incomplete_beta () =
  (* I_x(1,1) = x; I_x(a,b) endpoints; symmetry I_x(a,b) = 1 - I_(1-x)(b,a) *)
  check_close ~epsilon:1e-10 "I_x(1,1)=x" 0.37 (Test.incomplete_beta 1.0 1.0 0.37);
  check_close ~epsilon:1e-10 "x=0" 0.0 (Test.incomplete_beta 2.5 0.5 0.0);
  check_close ~epsilon:1e-10 "x=1" 1.0 (Test.incomplete_beta 2.5 0.5 1.0);
  let a = 3.0 and b = 1.7 and x = 0.42 in
  check_close ~epsilon:1e-10 "symmetry"
    (1.0 -. Test.incomplete_beta b a (1.0 -. x))
    (Test.incomplete_beta a b x)

let test_student_cdf () =
  (* reference values: R pt(t, df) *)
  check_close ~epsilon:1e-6 "cdf 0" 0.5 (Test.student_cdf ~df:7.0 0.0);
  check_close "pt(1, 1) = 0.75" 0.75 (Test.student_cdf ~df:1.0 1.0);
  check_close "pt(2.5, 10)" 0.984277 (Test.student_cdf ~df:10.0 2.5);
  check_close "pt(-1.8, 4)" 0.073119 (Test.student_cdf ~df:4.0 (-1.8));
  check_close ~epsilon:1e-6 "+inf" 1.0 (Test.student_cdf ~df:3.0 infinity);
  check_close ~epsilon:1e-6 "-inf" 0.0 (Test.student_cdf ~df:3.0 neg_infinity)

let test_t_quantile () =
  (* R qt(0.975, 4) = 2.776445, qt(0.995, 9) = 3.249836 *)
  check_close "qt(0.975, 4)" 2.776445 (Test.t_quantile ~df:4.0 0.975);
  check_close "qt(0.995, 9)" 3.249836 (Test.t_quantile ~df:9.0 0.995);
  check_close "qt(0.025, 4)" (-2.776445) (Test.t_quantile ~df:4.0 0.025);
  check_close ~epsilon:1e-9 "qt(0.5)" 0.0 (Test.t_quantile ~df:4.0 0.5);
  (* round-trip through the CDF *)
  check_close ~epsilon:1e-6 "cdf (qt p) = p" 0.91
    (Test.student_cdf ~df:6.0 (Test.t_quantile ~df:6.0 0.91))

(* ---------- one-sample ---------- *)

(* the pareto reference vector (R: t.test(vs, mu = 0)) *)
let vs =
  [|
    0.88456; 0.43590; 0.95778; -1.05039; -0.38589; -0.06342; -0.18712;
    1.58856; 0.86964; 1.22192;
  |]

let test_one_sample_pinned () =
  check_test_results
    (fun ~alternative -> Test.one_sample ~alternative ~mean:0.0 vs)
    [
      (1.636803, 0.136096); (1.636803, 0.931951); (1.636803, 0.068048);
    ]

let test_one_sample_df () =
  let r = Test.one_sample ~mean:0.0 vs in
  check_close ~epsilon:1e-9 "df = n - 1" 9.0 r.Test.df

(* ---------- two-sample: Welch and Student ---------- *)

let v1 =
  [|
    -0.86349; 0.36688; -0.48266; 0.53237; -0.87635; -1.28357; -1.46325;
    0.21937; -0.38159; -0.22752;
  |]

let v2 =
  [|
    -0.20951; 1.27388; 0.27331; 1.85599; -1.09702; -0.20033; -0.45065;
    0.06710; -0.18932; 1.60007;
  |]

let test_two_sample_welch_pinned () =
  check_test_results ~msg:"welch"
    (fun ~alternative ->
      Test.two_sample ~alternative ~shift:0.42 ~equal_variance:false v1 v2)
    [
      (-3.0972, 0.006832); (-3.0972, 0.003416); (-3.0972, 0.996583);
    ]

let test_two_sample_student_pinned () =
  check_test_results ~msg:"student"
    (fun ~alternative ->
      Test.two_sample ~alternative ~shift:0.24 ~equal_variance:true v1 v2)
    [
      (-2.6159, 0.017503); (-2.6159, 0.008751); (-2.6159, 0.991248);
    ]

let test_two_sample_student_df () =
  let r = Test.two_sample ~equal_variance:true v1 v2 in
  check_close ~epsilon:1e-9 "pooled df" 18.0 r.Test.df;
  (* Welch df for these samples (R reports 16.172) *)
  let w = Test.two_sample v1 v2 in
  check_close ~epsilon:1e-2 "welch df" 16.221 w.Test.df

(* ---------- paired ---------- *)

let test_paired_pinned () =
  (* paired = one-sample on differences: mean diff -0.738333, sample
     sd 0.647229 (hand-computed), so t = -3.607402 on df 9; p-values
     cross-checked against the t-table (t_{0.995,9} = 3.2498,
     t_{0.9975,9} = 3.6897 bracket the statistic). *)
  check_test_results ~msg:"paired"
    (fun ~alternative -> Test.paired ~alternative v1 v2)
    [
      (-3.607402, 0.005682); (-3.607402, 0.002841); (-3.607402, 0.997159);
    ];
  let p = Test.paired v1 v2 in
  let d = Array.init 10 (fun i -> v1.(i) -. v2.(i)) in
  let o = Test.one_sample ~mean:0.0 d in
  check_close ~epsilon:1e-12 "paired = one-sample on diffs"
    o.Test.statistic p.Test.statistic

(* ---------- alternatives consistency harness ---------- *)

(* For any data: Less + Greater p-values sum to 1, TwoSided =
   2 * min(Less, Greater), and swapping the samples flips the
   direction (statistic negates, Less and Greater exchange). *)
let check_alternatives_consistent msg (f : alternative:Test.alternative -> Test.result) =
  let two = f ~alternative:Test.TwoSided in
  let less = f ~alternative:Test.Less in
  let greater = f ~alternative:Test.Greater in
  check_close ~epsilon:1e-9 (msg ^ ": same statistic (less)")
    two.Test.statistic less.Test.statistic;
  check_close ~epsilon:1e-9 (msg ^ ": same statistic (greater)")
    two.Test.statistic greater.Test.statistic;
  check_close ~epsilon:1e-9 (msg ^ ": less + greater = 1") 1.0
    (less.Test.pvalue +. greater.Test.pvalue);
  check_close ~epsilon:1e-9 (msg ^ ": two-sided = 2 min(l, g)")
    (min 1.0 (2.0 *. min less.Test.pvalue greater.Test.pvalue))
    two.Test.pvalue;
  (* direction: the one-sided p-value in the statistic's direction is
     the small one *)
  if two.Test.statistic > 0.0 then
    Alcotest.(check bool) (msg ^ ": greater side smaller") true
      (greater.Test.pvalue <= less.Test.pvalue)
  else if two.Test.statistic < 0.0 then
    Alcotest.(check bool) (msg ^ ": less side smaller") true
      (less.Test.pvalue <= greater.Test.pvalue)

let test_alternatives_one_sample () =
  check_alternatives_consistent "one-sample" (fun ~alternative ->
      Test.one_sample ~alternative ~mean:0.1 vs)

let test_alternatives_two_sample () =
  check_alternatives_consistent "welch" (fun ~alternative ->
      Test.two_sample ~alternative v1 v2);
  check_alternatives_consistent "student" (fun ~alternative ->
      Test.two_sample ~alternative ~equal_variance:true v1 v2);
  check_alternatives_consistent "paired" (fun ~alternative ->
      Test.paired ~alternative v1 v2)

let test_sample_swap_flips () =
  let ab = Test.two_sample ~alternative:Test.Greater v1 v2 in
  let ba = Test.two_sample ~alternative:Test.Less v2 v1 in
  check_close ~epsilon:1e-12 "statistic negates" (-.ab.Test.statistic)
    ba.Test.statistic;
  check_close ~epsilon:1e-12 "p-value carried by direction"
    ab.Test.pvalue ba.Test.pvalue;
  let pab = Test.paired ~alternative:Test.Greater v1 v2 in
  let pba = Test.paired ~alternative:Test.Less v2 v1 in
  check_close ~epsilon:1e-12 "paired swap" pab.Test.pvalue pba.Test.pvalue

(* ---------- degenerate inputs ---------- *)

let test_degenerate_all_zeros () =
  (* pareto returns NaN/NaN here; we promise a usable verdict *)
  let r = Test.one_sample ~mean:0.0 [| 0.0; 0.0; 0.0; 0.0 |] in
  Alcotest.(check bool) "statistic not NaN" false (Float.is_nan r.Test.statistic);
  Alcotest.(check bool) "p-value not NaN" false (Float.is_nan r.Test.pvalue);
  check_close ~epsilon:1e-12 "no difference, t = 0" 0.0 r.Test.statistic;
  check_close ~epsilon:1e-12 "no difference, p = 1" 1.0 r.Test.pvalue

let test_degenerate_shifted () =
  (* constant data away from the hypothesized mean: infinitely
     significant in its direction, never NaN *)
  let xs = [| 1.0; 1.0; 1.0 |] in
  let g = Test.one_sample ~alternative:Test.Greater ~mean:0.0 xs in
  Alcotest.(check bool) "t = +inf" true (g.Test.statistic = infinity);
  check_close ~epsilon:1e-12 "greater p = 0" 0.0 g.Test.pvalue;
  let l = Test.one_sample ~alternative:Test.Less ~mean:0.0 xs in
  check_close ~epsilon:1e-12 "less p = 1" 1.0 l.Test.pvalue;
  let t = Test.one_sample ~mean:0.0 xs in
  check_close ~epsilon:1e-12 "two-sided p = 0" 0.0 t.Test.pvalue;
  let p = Test.paired [| 2.0; 2.0 |] [| 2.0; 2.0 |] in
  check_close ~epsilon:1e-12 "degenerate paired p = 1" 1.0 p.Test.pvalue

let test_too_few_points () =
  Alcotest.check_raises "one-sample n=1"
    (Invalid_argument "Stats.Test.one_sample: need at least 2 points")
    (fun () -> ignore (Test.one_sample ~mean:0.0 [| 1.0 |]));
  Alcotest.check_raises "sample_variance n=1"
    (Invalid_argument "Stats.sample_variance: need at least 2 points")
    (fun () -> ignore (Stats.sample_variance [| 1.0 |]))

(* ---------- chi-square goodness of fit ---------- *)

(* Reference p-values by hand, with Python's math module: for even df
   the tail is Q = e^(-x/2) sum_(i < df/2) (x/2)^i / i!; for df = 1 it
   is erfc (sqrt (x/2)); for df = 3, erfc (sqrt y) + 2 sqrt (y/pi)
   e^(-y) with y = x/2.  Each case names the branch of the incomplete
   gamma it reaches (series below x/2 = df/2 + 1, continued fraction
   above). *)
let chi_square_pins =
  let uniform9 = Array.make 9 (200.0 /. 9.0) in
  [
    ( "df 8, series",
      [| 20.; 25.; 24.; 22.; 19.; 26.; 24.; 20.; 20. |], uniform9,
      (2.41, 0.9657956854049576) );
    ( "df 8, fraction",
      [| 18.; 25.; 31.; 22.; 17.; 29.; 24.; 20.; 14. |], uniform9,
      (11.32, 0.18421835068576756) );
    ( "df 8, far tail",
      [| 40.; 31.; 22.; 12.; 9.; 30.; 21.; 20.; 15. |], uniform9,
      (35.62, 2.0607564091006762e-05) );
    ("df 1, series", [| 55.; 45. |], [| 50.; 50. |], (1.0, 0.31731050786291404));
    ("df 1, fraction", [| 60.; 40. |], [| 50.; 50. |], (4.0, 0.045500263896358396));
    ("df 2", [| 10.; 20.; 30. |], [| 20.; 20.; 20. |], (10.0, 0.006737946999085467));
    ( "df 3",
      [| 12.; 30.; 25.; 33. |], [| 25.; 25.; 25.; 25. |],
      (10.32, 0.016032999951966748) );
  ]

let test_chi_square_pinned () =
  List.iter
    (fun (name, observed, expected, (statistic, pvalue)) ->
      let r = Test.chi_square ~observed ~expected in
      check_close ~epsilon:1e-6 (name ^ " statistic") statistic r.Test.statistic;
      check_close ~epsilon:1e-6 (name ^ " p-value") pvalue r.Test.pvalue;
      check_close ~epsilon:1e-9 (name ^ " df")
        (float_of_int (Array.length observed - 1))
        r.Test.df)
    chi_square_pins;
  (* the far tail to 1e-6 relative, not only absolute *)
  let _, observed, expected, (_, pvalue) = List.nth chi_square_pins 2 in
  check_close ~epsilon:1e-6 "far tail, relative" 1.0
    ((Test.chi_square ~observed ~expected).Test.pvalue /. pvalue)

let test_chi_square_edges () =
  let perfect = Test.chi_square ~observed:[| 3.; 5.; 7. |] ~expected:[| 3.; 5.; 7. |] in
  check_close ~epsilon:1e-12 "perfect fit, statistic 0" 0.0 perfect.Test.statistic;
  check_close ~epsilon:1e-12 "perfect fit, p-value 1" 1.0 perfect.Test.pvalue;
  let raises msg observed expected =
    Alcotest.check_raises msg (Invalid_argument ("Stats.Test.chi_square: " ^ msg))
      (fun () -> ignore (Test.chi_square ~observed ~expected))
  in
  raises "expected counts must be positive" [| 1.; 2. |] [| 3.; 0. |];
  raises "expected counts must be positive" [| 1.; 2. |] [| 3.; Float.nan |];
  raises "observed counts must be non-negative" [| -1.; 2. |] [| 3.; 1. |];
  raises "length mismatch" [| 1.; 2. |] [| 3. |];
  raises "need at least 2 cells" [| 1. |] [| 1. |]

(* ---------- confidence intervals ---------- *)

let test_mean_ci_pinned () =
  (* R t.test(c(1,2,3,4,5)): mean 3, 95% CI (1.036757, 4.963243) *)
  let lo, hi = Test.mean_ci [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_close "ci lo" 1.036757 lo;
  check_close "ci hi" 4.963243 hi

let test_mean_ci_brackets () =
  let xs = vs in
  let lo, hi = Test.mean_ci xs in
  let m = Stats.mean xs in
  Alcotest.(check bool) "lo <= mean <= hi" true (lo <= m && m <= hi);
  let lo99, hi99 = Test.mean_ci ~confidence:0.99 xs in
  Alcotest.(check bool) "wider at 99%" true (lo99 <= lo && hi >= hi && hi99 >= hi)

(* ---------- qcheck properties for the Stats primitives ---------- *)

let prop_sample_variance_vs_population =
  QCheck2.Test.make ~name:"sample variance = n/(n-1) * population" ~count:300
    QCheck2.Gen.(list_size (int_range 2 50) (float_bound_exclusive 100.0))
    (fun l ->
      let xs = Array.of_list l in
      let n = float_of_int (Array.length xs) in
      Float.abs
        (Stats.sample_variance xs -. (Stats.variance xs *. (n /. (n -. 1.0))))
      < 1e-6)

let prop_t_cdf_monotone =
  QCheck2.Test.make ~name:"student cdf monotone in t" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 60)
        (float_bound_exclusive 10.0)
        (float_bound_exclusive 10.0))
    (fun (df, a, b) ->
      let df = float_of_int df in
      let lo = min a b -. 5.0 and hi = max a b in
      Test.student_cdf ~df lo <= Test.student_cdf ~df hi +. 1e-12)

(* The chi-square tail at any (df, x) against its closed forms: cells
   of expected count 1 with the first observed at 1 + sqrt x give
   statistic x.  For even df, Q = e^(-x/2) sum_(i < df/2) (x/2)^i / i!
   (terms summed as they are built); for df = 1, erfc (sqrt (x/2)). *)
let prop_chi_square_closed_form =
  QCheck2.Test.make ~name:"chi-square tail = closed form" ~count:300
    ~print:QCheck2.Print.(pair int float)
    QCheck2.Gen.(pair (oneof [ pure 1; map (fun h -> 2 * h) (int_range 1 20) ])
                   (float_bound_inclusive 120.0))
    (fun (df, x) ->
      let observed = Array.make (df + 1) 1.0 and expected = Array.make (df + 1) 1.0 in
      observed.(0) <- 1.0 +. sqrt x;
      let r = Test.chi_square ~observed ~expected in
      let y = x /. 2.0 in
      let q =
        if df = 1 then Float.erfc (sqrt y)
        else begin
          let term = ref 1.0 and sum = ref 1.0 in
          for i = 1 to (df / 2) - 1 do
            term := !term *. y /. float_of_int i;
            sum := !sum +. !term
          done;
          exp (-.y) *. !sum
        end
      in
      Float.abs (r.Test.pvalue -. q) <= 1e-9 *. Float.max 1.0 q)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sample_variance_vs_population;
      prop_t_cdf_monotone; prop_chi_square_closed_form;
    ]

let () =
  Alcotest.run "stats"
    [
      ( "special functions",
        [
          Alcotest.test_case "log gamma" `Quick test_log_gamma;
          Alcotest.test_case "incomplete beta" `Quick test_incomplete_beta;
          Alcotest.test_case "student cdf" `Quick test_student_cdf;
          Alcotest.test_case "t quantile" `Quick test_t_quantile;
        ] );
      ( "t-tests (pinned)",
        [
          Alcotest.test_case "one-sample" `Quick test_one_sample_pinned;
          Alcotest.test_case "one-sample df" `Quick test_one_sample_df;
          Alcotest.test_case "welch" `Quick test_two_sample_welch_pinned;
          Alcotest.test_case "student pooled" `Quick test_two_sample_student_pinned;
          Alcotest.test_case "two-sample df" `Quick test_two_sample_student_df;
          Alcotest.test_case "paired" `Quick test_paired_pinned;
        ] );
      ( "alternatives",
        [
          Alcotest.test_case "one-sample consistent" `Quick
            test_alternatives_one_sample;
          Alcotest.test_case "two-sample consistent" `Quick
            test_alternatives_two_sample;
          Alcotest.test_case "sample swap flips" `Quick test_sample_swap_flips;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "all zeros" `Quick test_degenerate_all_zeros;
          Alcotest.test_case "constant shifted" `Quick test_degenerate_shifted;
          Alcotest.test_case "too few points" `Quick test_too_few_points;
        ] );
      ( "chi-square",
        [
          Alcotest.test_case "pinned" `Quick test_chi_square_pinned;
          Alcotest.test_case "edges" `Quick test_chi_square_edges;
        ] );
      ( "confidence intervals",
        [
          Alcotest.test_case "t interval pinned" `Quick test_mean_ci_pinned;
          Alcotest.test_case "t interval brackets" `Quick test_mean_ci_brackets;
        ] );
      ("properties", qcheck_cases);
    ]
