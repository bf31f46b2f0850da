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

val sweepable : string -> (Experiment.t, string) result
(** {!find}, for [tussle sweep]: [Error] on an unknown id or an
    experiment without a sweep surface. *)

val run_list :
  ?domains:int ->
  ?timeout_s:float ->
  Experiment.t list ->
  Experiment.outcome list
(** Run a batch of experiments on at most [domains] domains (default
    the process budget, {!Tussle_prelude.Pool.domains}; [~domains:1] is
    strictly sequential in the calling domain) and return their
    outcomes in input order.  A [Pool.map] inside an experiment runs
    inline on that experiment's domain.  Fault-isolated: a raising
    experiment yields a [Failed] outcome instead of killing the batch,
    and with
    [?timeout_s] set each experiment additionally runs under the
    watchdog of {!Experiment.run} — a runaway one becomes
    [FAILED (timeout)] while the rest of the batch carries on. *)

val run :
  metrics:bool ->
  trace:string option ->
  report:string option ->
  ?timeout_s:float ->
  string option ->
  (int, string) result
(** [tussle experiments]: run the battery ([None]) or one experiment
    by id, fault-isolated and watchdog-guarded by {!run_list} and
    {!Experiment.run}, and print each output in registry order (the
    battery's then its summary line; the whole battery is one
    ["battery"] span when tracing).  The flags' telemetry is on for the
    run: metrics when [metrics] or [report] is set, tracing
    when [trace] is.  Afterwards it writes the battery report and
    prints its summary, writes the Chrome trace, prints the metrics
    table when asked, and returns the exit code: 0 when every shape
    check held (a [Failed] experiment does not), 1 otherwise.  [Error]
    names an unknown id.  The report's pool block is the battery's own
    map ({!Tussle_prelude.Pool.last_stats}); a single experiment's has
    none.  An unwritable [report] or [trace] path prints
    [experiments: FLAG: MSG] and exits 2
    ({!Tussle_prelude.Pool.artifact}). *)
