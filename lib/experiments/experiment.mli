(** Common shape of a reproduction experiment.

    Every experiment renders one table (the paper has no numbered
    tables or figures; each experiment operationalizes one qualitative
    claim from the text — see DESIGN.md's experiment index) and checks
    its own expected shape, so the harness can report
    paper-claim-holds / does-not-hold mechanically.

    Experiments are self-contained: each [run] builds its own [Rng] and
    [Engine] and touches no shared mutable state, which is what lets
    the registry execute the battery across domains (see
    {!Tussle_prelude.Pool}). *)

type verdict = {
  claim : string;
      (** human-readable hypothesis, e.g. "markup(pb6) > markup(portable)" *)
  test : string;  (** which test produced it, e.g. "paired t, greater" *)
  result : Tussle_prelude.Stats.Test.result;
}

type sweep = {
  probe : seed:int -> (string * float) list;
      (** one {e cheap} seeded run returning named scalar metrics — the
          unit the sweep driver fans across seeds on [Pool.map].  Must
          be deterministic in [seed] alone (build a fresh [Rng] from
          it, touch no shared state) and return the same metric names
          in the same order for every seed. *)
  judge : (string -> float array) -> verdict list;
      (** statistical verdicts over the collected samples.  The
          accessor maps a metric name (as returned by [probe]) to its
          per-seed samples in run order — paired tests rely on that
          ordering.  Raises [Not_found] on an unknown name. *)
}
(** A statistical sweep surface: how to run one seeded replicate and
    how to judge the accumulated samples.  Experiments with [sweep =
    Some _] can be promoted from a one-seed shape check to a
    "held with p < alpha across N seeds" verdict by [tussle sweep]. *)

type t = {
  id : string;  (** "E1" ... "E29" *)
  title : string;
  paper_claim : string;  (** the sentence from the paper being tested *)
  run : unit -> string * bool;
      (** rendered table(s) and whether the expected shape held *)
  sweep : sweep option;
      (** statistical sweep surface; [None] for shape-check-only
          experiments *)
}

type status =
  | Held  (** the shape check matched the paper's qualitative claim *)
  | Violated  (** the experiment ran but the shape check failed *)
  | Failed of string  (** [run] raised; the payload is the exception *)

type outcome = {
  exp_id : string;
  exp_title : string;
  output : string;
      (** the fully rendered block: header, body (or failure report),
          footer — ready to print verbatim *)
  status : status;
  wall_s : float;  (** wall clock of this [run] (monotonic) *)
  events_executed : int;
      (** engine events attributed to this run via the domain-local
          [engine.events_executed] counter delta (a [Pool.map] inside
          the run executes inline on its domain, so every event counts);
          0 while {!Tussle_obs.Metrics} is disabled *)
  allocated_bytes : float;
      (** [Gc.allocated_bytes] delta of the running domain, measured from
          an emptied minor heap: repeatable on one domain for one list
          of experiments, approximate while other domains' collections
          interrupt it.  It depends on the experiments run before it in
          the same process, whose major heap the window inherits (see
          {!Tussle_obs.Report.exp}). *)
}

val run : ?timeout_s:float -> t -> outcome
(** Run with fault isolation: an uncaught exception becomes
    [Failed msg] with a ["FAILED (uncaught: ...)"] body (plus backtrace
    when [Printexc.record_backtrace] is on) instead of propagating, so
    one broken experiment cannot abort a battery.  Every run fills the
    outcome's wall-clock/events/allocation telemetry and, when
    {!Tussle_obs.Trace} is enabled, records an ["experiment"] span
    tagged with the experiment id.

    [?timeout_s] arms the per-experiment watchdog (off by default, and
    with it off this function is exactly the historical synchronous
    run).  The experiment then executes in a freshly spawned domain
    while the caller polls; if it has not produced an outcome within
    [timeout_s] seconds of wall clock, the caller stops waiting and
    returns a [Failed "timeout: ..."] outcome whose body starts with
    ["FAILED (timeout"] and whose [wall_s] records the elapsed wait —
    partial telemetry for a run that never finished.  The runaway
    domain is {e abandoned}, not killed (OCaml domains cannot be killed
    safely): it keeps its core busy until it finishes on its own or the
    process exits, but the battery carries on.  Raises
    [Invalid_argument] on a non-positive or non-finite [timeout_s]. *)

val held : outcome -> bool
(** [held o] iff [o.status = Held]. *)
