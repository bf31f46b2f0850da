let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let total xs = Array.fold_left ( +. ) 0.0 xs

let mean xs =
  check_nonempty "Stats.mean" xs;
  total xs /. float_of_int (Array.length xs)

let sum_sq_dev xs =
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs

let variance xs =
  check_nonempty "Stats.variance" xs;
  sum_sq_dev xs /. float_of_int (Array.length xs)

let stddev xs = sqrt (variance xs)

let sample_variance xs =
  if Array.length xs < 2 then
    invalid_arg "Stats.sample_variance: need at least 2 points";
  sum_sq_dev xs /. float_of_int (Array.length xs - 1)

let sample_stddev xs = sqrt (sample_variance xs)

let hhi xs =
  check_nonempty "Stats.hhi" xs;
  let s = total xs in
  if s <= 0.0 then invalid_arg "Stats.hhi: zero total";
  Array.fold_left (fun acc x -> acc +. ((x /. s) ** 2.0)) 0.0 xs

(* ---------- hypothesis tests ---------- *)

module Test = struct
  type alternative = TwoSided | Less | Greater

  type result = { statistic : float; df : float; pvalue : float }

  (* Lanczos approximation (g = 7, 9 terms): |relative error| < 1e-13
     over the positive reals, far tighter than the 1e-4 the verdicts
     need. *)
  let lanczos =
    [|
      0.99999999999980993; 676.5203681218851; -1259.1392167224028;
      771.32342877765313; -176.61502916214059; 12.507343278686905;
      -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
    |]

  let rec log_gamma x =
    if x < 0.5 then
      (* reflection keeps the series out of its ill-conditioned range *)
      log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
    else
      let x = x -. 1.0 in
      let a = ref lanczos.(0) in
      for i = 1 to 8 do
        a := !a +. (lanczos.(i) /. (x +. float_of_int i))
      done;
      let t = x +. 7.5 in
      (0.5 *. log (2.0 *. Float.pi))
      +. ((x +. 0.5) *. log t)
      -. t +. log !a

  (* Continued fraction for the regularized incomplete beta (modified
     Lentz); converges in a few dozen iterations for the x ranges the
     CDF below feeds it. *)
  let betacf a b x =
    let max_iter = 300 and eps = 3e-15 and fpmin = 1e-300 in
    let qab = a +. b and qap = a +. 1.0 and qam = a -. 1.0 in
    let c = ref 1.0 in
    let d = ref (1.0 -. (qab *. x /. qap)) in
    if Float.abs !d < fpmin then d := fpmin;
    d := 1.0 /. !d;
    let h = ref !d in
    let m = ref 1 in
    let continue = ref true in
    while !continue && !m <= max_iter do
      let mf = float_of_int !m in
      let m2 = 2.0 *. mf in
      let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
      d := 1.0 +. (aa *. !d);
      if Float.abs !d < fpmin then d := fpmin;
      c := 1.0 +. (aa /. !c);
      if Float.abs !c < fpmin then c := fpmin;
      d := 1.0 /. !d;
      h := !h *. !d *. !c;
      let aa =
        -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2))
      in
      d := 1.0 +. (aa *. !d);
      if Float.abs !d < fpmin then d := fpmin;
      c := 1.0 +. (aa /. !c);
      if Float.abs !c < fpmin then c := fpmin;
      d := 1.0 /. !d;
      let del = !d *. !c in
      h := !h *. del;
      if Float.abs (del -. 1.0) < eps then continue := false;
      incr m
    done;
    !h

  let incomplete_beta a b x =
    if a <= 0.0 || b <= 0.0 then
      invalid_arg "Stats.Test.incomplete_beta: a and b must be positive";
    if x <= 0.0 then 0.0
    else if x >= 1.0 then 1.0
    else
      let bt =
        exp
          (log_gamma (a +. b) -. log_gamma a -. log_gamma b
          +. (a *. log x)
          +. (b *. log (1.0 -. x)))
      in
      if x < (a +. 1.0) /. (a +. b +. 2.0) then bt *. betacf a b x /. a
      else 1.0 -. (bt *. betacf b a (1.0 -. x) /. b)

  (* Regularized upper incomplete gamma Q(a, x): the power series of
     P = 1 - Q below x = a + 1, the continued fraction for Q itself
     (modified Lentz) above, each where it converges fast. *)
  let gamma_q a x =
    if x <= 0.0 then 1.0
    else if x = infinity then 0.0
    else
      let max_iter = 1000 and eps = 3e-15 and fpmin = 1e-300 in
      let front = exp ((a *. log x) -. x -. log_gamma a) in
      if x < a +. 1.0 then begin
        let ap = ref a and del = ref (1.0 /. a) in
        let sum = ref !del and i = ref 0 in
        while !i < max_iter && Float.abs !del >= Float.abs !sum *. eps do
          ap := !ap +. 1.0;
          del := !del *. x /. !ap;
          sum := !sum +. !del;
          incr i
        done;
        1.0 -. (!sum *. front)
      end
      else begin
        let b = ref (x +. 1.0 -. a) in
        let c = ref (1.0 /. fpmin) and d = ref (1.0 /. !b) in
        let h = ref !d and i = ref 1 and continue = ref true in
        while !continue && !i <= max_iter do
          let fi = float_of_int !i in
          let an = -.fi *. (fi -. a) in
          b := !b +. 2.0;
          d := (an *. !d) +. !b;
          if Float.abs !d < fpmin then d := fpmin;
          c := !b +. (an /. !c);
          if Float.abs !c < fpmin then c := fpmin;
          d := 1.0 /. !d;
          let del = !d *. !c in
          h := !h *. del;
          if Float.abs (del -. 1.0) < eps then continue := false;
          incr i
        done;
        front *. !h
      end

  let student_cdf ~df t =
    if not (df > 0.0) then
      invalid_arg "Stats.Test.student_cdf: df must be positive";
    if t <> t then nan
    else if t = infinity then 1.0
    else if t = neg_infinity then 0.0
    else
      let x = df /. (df +. (t *. t)) in
      let tail = 0.5 *. incomplete_beta (df /. 2.0) 0.5 x in
      if t >= 0.0 then 1.0 -. tail else tail

  let pvalue_of ~alternative ~df t =
    let less = student_cdf ~df t in
    match alternative with
    | Less -> less
    | Greater -> 1.0 -. less
    | TwoSided -> min 1.0 (2.0 *. min less (1.0 -. less))

  (* Degenerate inputs (zero spread, so the t denominator vanishes)
     still get a non-NaN verdict: no observed difference is "no
     evidence" (t = 0), a nonzero difference with zero spread is
     treated as infinitely significant in its direction.  This is
     where we deliberately diverge from pareto, whose all-zeros
     one-sample test returns NaN/NaN. *)
  let finish ~alternative ~df ~diff ~se =
    let statistic =
      if se > 0.0 then diff /. se
      else if diff = 0.0 then 0.0
      else if diff > 0.0 then infinity
      else neg_infinity
    in
    let pvalue =
      if Float.is_finite statistic then pvalue_of ~alternative ~df statistic
      else
        match (alternative, statistic > 0.0) with
        | TwoSided, _ -> 0.0
        | Greater, true | Less, false -> 0.0
        | Greater, false | Less, true -> 1.0
    in
    { statistic; df; pvalue }

  let one_sample ?(alternative = TwoSided) ~mean:mu xs =
    let n = Array.length xs in
    if n < 2 then invalid_arg "Stats.Test.one_sample: need at least 2 points";
    let nf = float_of_int n in
    let se = sample_stddev xs /. sqrt nf in
    finish ~alternative ~df:(nf -. 1.0) ~diff:(mean xs -. mu) ~se

  let two_sample ?(alternative = TwoSided) ?(shift = 0.0)
      ?(equal_variance = false) xs ys =
    let n1 = Array.length xs and n2 = Array.length ys in
    if n1 < 2 || n2 < 2 then
      invalid_arg "Stats.Test.two_sample: need at least 2 points per sample";
    let nf1 = float_of_int n1 and nf2 = float_of_int n2 in
    let v1 = sample_variance xs and v2 = sample_variance ys in
    let diff = mean xs -. mean ys -. shift in
    if equal_variance then
      (* Student: pooled variance, df = n1 + n2 - 2 *)
      let df = nf1 +. nf2 -. 2.0 in
      let pooled = (((nf1 -. 1.0) *. v1) +. ((nf2 -. 1.0) *. v2)) /. df in
      let se = sqrt (pooled *. ((1.0 /. nf1) +. (1.0 /. nf2))) in
      finish ~alternative ~df ~diff ~se
    else
      (* Welch: unpooled variance, Welch-Satterthwaite df *)
      let q1 = v1 /. nf1 and q2 = v2 /. nf2 in
      let se = sqrt (q1 +. q2) in
      let df =
        if se > 0.0 then
          ((q1 +. q2) *. (q1 +. q2))
          /. ((q1 *. q1 /. (nf1 -. 1.0)) +. (q2 *. q2 /. (nf2 -. 1.0)))
        else nf1 +. nf2 -. 2.0
      in
      finish ~alternative ~df ~diff ~se

  let paired ?(alternative = TwoSided) ?(shift = 0.0) xs ys =
    let n = Array.length xs in
    if n <> Array.length ys then
      invalid_arg "Stats.Test.paired: length mismatch";
    one_sample ~alternative ~mean:shift
      (Array.init n (fun i -> xs.(i) -. ys.(i)))

  let t_quantile ~df p =
    if not (df > 0.0) then
      invalid_arg "Stats.Test.t_quantile: df must be positive";
    if not (p > 0.0 && p < 1.0) then
      invalid_arg "Stats.Test.t_quantile: p must be in (0, 1)";
    if p = 0.5 then 0.0
    else
      (* bisection on the CDF: ~1e-13 after 60 halvings of [0, 1e6],
         monotone and branch-free enough to be bit-deterministic *)
      let target = max p (1.0 -. p) in
      let lo = ref 0.0 and hi = ref 1e6 in
      for _ = 1 to 200 do
        let mid = 0.5 *. (!lo +. !hi) in
        if student_cdf ~df mid < target then lo := mid else hi := mid
      done;
      let q = 0.5 *. (!lo +. !hi) in
      if p < 0.5 then -.q else q

  let chi_square ~observed ~expected =
    let n = Array.length observed in
    if n <> Array.length expected then
      invalid_arg "Stats.Test.chi_square: length mismatch";
    if n < 2 then invalid_arg "Stats.Test.chi_square: need at least 2 cells";
    let statistic = ref 0.0 in
    for i = 0 to n - 1 do
      let o = observed.(i) and e = expected.(i) in
      if not (e > 0.0 && e < infinity) then
        invalid_arg "Stats.Test.chi_square: expected counts must be positive";
      if not (o >= 0.0 && o < infinity) then
        invalid_arg "Stats.Test.chi_square: observed counts must be non-negative";
      statistic := !statistic +. ((o -. e) *. (o -. e) /. e)
    done;
    let df = float_of_int (n - 1) in
    { statistic = !statistic; df; pvalue = gamma_q (df /. 2.0) (!statistic /. 2.0) }

  let mean_ci ?(confidence = 0.95) xs =
    if Array.length xs < 2 then
      invalid_arg "Stats.Test.mean_ci: need at least 2 points";
    if not (confidence > 0.0 && confidence < 1.0) then
      invalid_arg "Stats.Test.mean_ci: confidence must be in (0, 1)";
    let n = float_of_int (Array.length xs) in
    let m = mean xs in
    let se = sample_stddev xs /. sqrt n in
    let t = t_quantile ~df:(n -. 1.0) (1.0 -. ((1.0 -. confidence) /. 2.0)) in
    (m -. (t *. se), m +. (t *. se))
end
