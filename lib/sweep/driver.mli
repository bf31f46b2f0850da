(** The statistical sweep driver behind [tussle sweep].

    Fans each experiment's {!Tussle_experiments.Experiment.sweep}
    probe across [runs] seeds on order-preserving
    {!Tussle_prelude.Pool.map}, collates the named metrics into
    per-seed sample arrays, computes mean / sample stddev / 95%
    Student-t interval per metric, and judges the experiment's
    hypothesis tests against [alpha] into a
    {!Tussle_obs.Sweep_report.t}.

    Determinism contract (same as the chaos sweep): run seeds derive
    only from (sweep seed, run index) ({!Tussle_prelude.Rng.seed_at})
    and the report carries no wall-clock or domain-count field, so
    both the rendered summary and the JSON artifact are byte-identical
    for any [--domains] count and across repeated runs at the same
    seed. *)

type error = { exp_id : string; message : string }
(** A per-experiment sweep failure: a probe run raised (or timed out
    under the watchdog), runs disagreed on metric names, or the judge
    asked for a metric the probe never produced.  Failed experiments
    are omitted from the report; the sweep's other experiments are
    unaffected (the battery's fault-isolation discipline). *)

val run_sweep :
  ?timeout_s:float ->
  seed:int ->
  runs:int ->
  alpha:float ->
  Tussle_experiments.Experiment.t list ->
  Tussle_obs.Sweep_report.t * error list
(** Sweep every experiment in the list that exposes a sweep surface
    (others are silently skipped — pass {!Tussle_experiments.Registry.sweepables}
    for "all of them").  Each probe replicate runs through
    {!Tussle_experiments.Experiment.run} — uncaught exceptions become
    {!error}s instead of killing the sweep, and [?timeout_s] arms the
    per-run watchdog.  Raises [Invalid_argument] if [runs < 2] or
    [alpha] is outside (0, 1). *)

val error_string : error -> string
