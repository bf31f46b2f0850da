(** The experiment registry: every paper claim the harness regenerates.

    The battery is embarrassingly parallel — each experiment builds its
    own [Rng]/[Engine] and renders into its own buffer — so the runner
    fans it out over OCaml 5 domains via {!Tussle_prelude.Pool} while
    printing results strictly in registry order.  Output is
    byte-identical for any domain count. *)

val all : Experiment.t list
(** E1 through E30 in order. *)

val hang_probe : Experiment.t
(** "E99": a deliberately-hung toy experiment ({e not} part of {!all})
    whose [run] never returns — the fixture tests and CI use to check
    that the watchdog converts a runaway experiment into a
    [FAILED (timeout)] outcome without killing the battery.  Only run
    it with [?timeout_s] armed. *)

val sweepables : unit -> Experiment.t list
(** The experiments exposing a statistical {!Experiment.sweep}
    surface, in registry order — what [tussle sweep] runs by
    default. *)

val find : string -> Experiment.t option
(** Lookup by id (case-insensitive, e.g. "e4" or "E4"); also resolves
    the {!hang_probe} ("E99"). *)

val run_list :
  ?domains:int ->
  ?timeout_s:float ->
  Experiment.t list ->
  Experiment.outcome list
(** Run a batch of experiments on [domains] domains (default
    {!Tussle_prelude.Pool.default_domains}; [~domains:1] is strictly
    sequential in the calling domain) and return their outcomes in
    input order.  Fault-isolated: a raising experiment yields a
    [Failed] outcome instead of killing the batch, and with
    [?timeout_s] set each experiment additionally runs under the
    watchdog of {!Experiment.run} — a runaway one becomes
    [FAILED (timeout)] while the rest of the batch carries on. *)

val run_battery :
  ?domains:int ->
  ?timeout_s:float ->
  unit ->
  bool * Experiment.outcome list * float
(** Run every experiment via {!run_list} and print each output to
    stdout in registry order, then the summary line.  Returns [true]
    iff every shape check held (a [Failed] experiment counts as not
    holding), the outcomes (for report building) and the battery wall
    clock in seconds.  The whole run is wrapped in a ["battery"] span
    when tracing is enabled. *)

val run_one : ?timeout_s:float -> string -> (Experiment.outcome, string) result
(** Print one experiment by id (fault-isolated and watchdog-guarded
    like {!run_battery}) and return its outcome. *)

val report :
  domains:int ->
  wall_s:float ->
  Experiment.outcome list ->
  Tussle_obs.Report.t
(** Assemble the structured battery report (label ["battery"]) from
    outcomes plus the current {!Tussle_prelude.Pool.last_stats} and
    {!Tussle_obs.Metrics.snapshot}.  Call it right after the battery,
    before anything else touches the pool or the metric sinks. *)

val telemetry :
  ?domains:int ->
  metrics:bool ->
  trace:string option ->
  report:string option ->
  unit ->
  (wall_s:float -> Experiment.outcome list -> unit) * (int -> int)
(** The [--metrics]/[--trace]/[--report] handling of
    [tussle experiments].  Enables the metric sinks when [metrics] or
    [report] is set and tracing when [trace] is, then returns
    [(emit_report, finish)]:
    - [emit_report ~wall_s outcomes] writes the battery report (built
      by {!report} with [domains], default
      {!Tussle_prelude.Pool.default_domains}) and prints its summary;
      an unwritable file prints [experiments: --report: MSG] and exits
      2;
    - [finish code] writes the Chrome trace, prints the metrics table
      when asked, and returns [code]. *)
