(** Descriptive statistics used by the experiment harness.

    All functions take plain [float array]s (or lists where noted) and are
    total over non-empty input; empty input raises [Invalid_argument] except
    where a neutral value exists. *)

val mean : float array -> float
(** Arithmetic mean.  Raises on empty input. *)

val variance : float array -> float
(** Population variance (biased, divides by [n]).  Raises on empty
    input.  This is the right estimator when the data {e is} the whole
    population — the descriptive uses keep it deliberately:
    {!stddev} (spread of the values at hand) and
    [Actor_network]'s position dispersion.  For inference from a
    sample (t-tests, confidence intervals) use {!sample_variance};
    everything in {!Test} does. *)

val stddev : float array -> float
(** Population standard deviation. *)

val sample_variance : float array -> float
(** Unbiased sample variance (divides by [n-1]) — the estimator
    inference needs.  Raises on fewer than 2 points. *)

val sample_stddev : float array -> float
(** Square root of {!sample_variance}. *)

val total : float array -> float
(** Sum; [0.] on empty input. *)

val hhi : float array -> float
(** Herfindahl–Hirschman index of market shares computed from raw sizes:
    sum of squared shares, in (0, 1].  1 = monopoly.  Raises on zero
    total. *)

(** Hypothesis tests and confidence intervals (pareto-style t-tests
    and a chi-square goodness of fit, self-contained: the Student CDF
    is a hand-rolled regularized incomplete beta and the chi-square
    tail a regularized incomplete gamma, no external stats
    dependency).

    Every t-test reports the t statistic, the degrees of freedom, and
    the p-value under the chosen {!Test.alternative}.  Degenerate
    inputs with zero spread return a non-NaN verdict: zero observed
    difference gives [statistic = 0.] (p-value 1 two-sided), a nonzero
    difference over zero spread gives an infinite statistic (p-value 0
    in its direction).  All functions are deterministic — same inputs,
    same bits — which is what lets sweep reports be byte-identical
    across domain counts. *)
module Test : sig
  type alternative =
    | TwoSided  (** H1: means differ *)
    | Less  (** H1: first mean is smaller *)
    | Greater  (** H1: first mean is larger *)

  type result = { statistic : float; df : float; pvalue : float }

  val one_sample : ?alternative:alternative -> mean:float -> float array -> result
  (** Student one-sample t-test of H0: the population mean is [mean].
      Raises on fewer than 2 points. *)

  val two_sample :
    ?alternative:alternative ->
    ?shift:float ->
    ?equal_variance:bool ->
    float array ->
    float array ->
    result
  (** Two-sample t-test of H0: [mean xs - mean ys = shift] (default
      [0.]).  [equal_variance:false] (default) is Welch's test with
      Welch–Satterthwaite degrees of freedom; [true] is Student's
      pooled-variance test with [n1 + n2 - 2].  Raises on fewer than 2
      points in either sample. *)

  val paired : ?alternative:alternative -> ?shift:float -> float array -> float array -> result
  (** Paired t-test: {!one_sample} on the per-index differences
      [xs.(i) -. ys.(i)] against [shift].  Raises on length mismatch
      or fewer than 2 pairs. *)

  val chi_square : observed:float array -> expected:float array -> result
  (** Pearson's chi-square goodness-of-fit test of H0: the [observed]
      counts were drawn with cell means [expected].  [statistic] is
      [sum (o - e)^2 / e], [df] the cell count less one, and [pvalue]
      the upper tail [P(X >= statistic)] of the chi-square
      distribution with [df] degrees of freedom (a regularized upper
      incomplete gamma); a perfect fit gives statistic 0 and p-value
      1.  Raises on a length mismatch, fewer than 2 cells, an expected
      count that is not positive and finite, or an observed count
      that is not non-negative and finite. *)

  val mean_ci : ?confidence:float -> float array -> float * float
  (** Student-t confidence interval [(lo, hi)] for the mean
      (default 95%).  Raises on fewer than 2 points or a confidence
      outside (0, 1). *)

  val student_cdf : df:float -> float -> float
  (** [student_cdf ~df t] is [P(T <= t)] for Student's t with [df]
      degrees of freedom.  Exposed for tests and plotting. *)

  val t_quantile : df:float -> float -> float
  (** Inverse of {!student_cdf} (bisection; [p] in (0, 1)). *)

  val incomplete_beta : float -> float -> float -> float
  (** Regularized incomplete beta [I_x(a, b)] — the primitive under
      the CDF, exposed for pinned-value tests. *)

  val log_gamma : float -> float
end
