(** The [tussle.sweep-report/1] artifact emitted by [tussle sweep]:
    per-metric samples across seeds with mean/stddev/confidence
    interval, plus statistical verdicts (t-test results judged against
    an alpha).

    Unlike the battery report there is deliberately {e no}
    [generated_at] or other wall-clock field: the sweep contract is
    byte-identical output across [--domains] and across repeated runs
    at the same seed, so the artifact derives from (seed, config)
    alone. *)

type metric = {
  name : string;
  samples : float array;  (** one per run, in run order *)
  mean : float;
  stddev : float;  (** sample (n-1) standard deviation *)
  ci_lo : float;
  ci_hi : float;  (** 95% Student-t interval for the mean *)
}

type verdict = {
  claim : string;  (** human-readable hypothesis, e.g. "markup(pb6) > markup(portable)" *)
  test : string;  (** which test produced it, e.g. "paired t, greater" *)
  statistic : float;
  df : float;
  pvalue : float;
  alpha : float;
  pass : bool;  (** [pvalue < alpha] *)
}

type exp = {
  id : string;
  title : string;
  runs : int;
  metrics : metric list;
  verdicts : verdict list;
}

type t = {
  label : string;
  sweep_seed : int;
  runs : int;
  experiments : exp list;
}
(** Note there is no [domains] field either: the artifact must be
    byte-identical however many domains ran the sweep. *)

val schema_tag : string
(** ["tussle.sweep-report/1"] *)

val make : sweep_seed:int -> runs:int -> exp list -> t
(** Labelled ["sweep"]. *)

val to_json : t -> Json.t
(** Includes a [summary] object (experiment/verdict/passed counts)
    recomputed from the payload.  Non-finite verdict statistics are
    encoded as the strings ["inf"]/["-inf"]/["nan"] so they survive
    the JSON layer (which renders non-finite floats as [null]). *)

val of_json : Json.t -> (t, string) result
(** Structural parse back into {!t}; fails with a message naming the
    first offending field. *)

val validate : Json.t -> (unit, string) result
(** The one check of a [tussle.sweep-report/1]: its tag, field
    presence and types; summary counts that match the listed verdicts;
    every experiment's [runs] equal to the sweep's and to each of its
    metrics' sample count; finite means, samples and non-negative
    stddevs; a CI that brackets its mean; a mean that matches its
    samples' average (relative 1e-9); and each verdict's [pass] flag
    agreeing with [pvalue < alpha].  [Error] names the first problem. *)

val summary : t -> string
(** Deterministic human-readable rendering (metric table + PASS/FAIL
    verdict lines). *)

val count_verdicts : t -> int * int
(** [(total, passed)] across all experiments. *)
