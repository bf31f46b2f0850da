(** Structured per-battery report: machine-readable JSON plus a human
    summary table.

    Schema (["tussle.battery-report/1"]):
    {v
    { "schema": "tussle.battery-report/1",
      "label": "battery",
      "generated_at": <unix epoch seconds>,
      "domains": <requested domain count>,
      "wall_s": <whole-battery wall clock>,
      "summary": {"total": N, "held": H, "violated": V, "failed": F},
      "experiments": [
        {"id": "E1", "title": "...", "status": "held"|"violated"|"failed",
         "detail": "<failure message or empty>",
         "wall_s": <float>, "events_executed": <int>,
         "allocated_bytes": <float>}, ... ],
      "pool": {                      // the battery's map; absent otherwise
        "workers": W, "tasks": [int], "busy_s": [float],
        "wall_s": <float>, "imbalance": <float>},
      "metrics": {
        "<name>": {"type": "counter", "value": <int>}
                | {"type": "gauge", "last": f, "max": f, "sets": n}
                | {"type": "histogram", "count": n, "sum": f,
                   "p50": f, "p90": f, "p99": f,
                   "buckets": [[index, count], ...]}, ... } }
    v}

    [pool.imbalance] is [(max busy - min busy) / max busy] over
    workers — 0 is a perfectly balanced battery, values near 1 mean
    one worker carried the run (queue-wait imbalance). *)

type exp = {
  id : string;
  title : string;
  status : string;  (** ["held"], ["violated"] or ["failed"] *)
  detail : string;  (** failure message, [""] otherwise *)
  wall_s : float;
  events_executed : int;
      (** engine events attributed to this experiment (0 when metrics
          were disabled during the run) *)
  allocated_bytes : float;
      (** GC allocation delta of the running domain.  Compare it only
          between [--seq] reports: under [--domains 2] another domain's
          stop-the-world minor collections land inside the window, and
          the count then depends on where they fall.  Compare it only
          between runs of the same experiment list, too: the figure
          depends on the experiments that ran before it in the same
          process (E27 reads a few hundred KB more in the [--seq] battery
          than under [-e E27 --seq]), since the window starts from an
          emptied minor heap but inherits the major heap its
          predecessors left.  A full collection per window would remove
          that and slow the battery. *)
}

type pool = {
  workers : int;
  tasks : int array;  (** items executed per worker *)
  busy_s : float array;  (** time spent inside items per worker *)
  pool_wall_s : float;  (** wall clock of the whole [Pool.map] *)
}

type t = {
  label : string;
  generated_at : float;  (** unix epoch seconds *)
  domains : int;
  wall_s : float;
  experiments : exp list;
  pool : pool option;
  metrics : (string * Metrics.value) list;
}

val schema_tag : string
(** ["tussle.battery-report/1"] *)

val make :
  ?pool:pool ->
  ?metrics:(string * Metrics.value) list ->
  domains:int ->
  wall_s:float ->
  exp list ->
  t
(** Labelled ["battery"]; [generated_at] is stamped from the system
    clock. *)

val imbalance : pool -> float

val to_json : t -> Json.t

val write : string -> t -> unit

val summary : t -> string
(** Human-readable: one table row per experiment (status, wall,
    events, allocation), totals line, pool balance line. *)

val validate : Json.t -> (unit, string) result
(** Check a parsed JSON value against the schema above: schema tag,
    required fields with the right types, a known status per
    experiment, summary counts consistent with the experiment list,
    and, when present, pool arrays of one entry per worker, [tasks]
    non-negative ints summing to [summary.total] and [busy_s] floats;
    and, when present, a metrics object whose every entry decodes back
    to a {!Metrics.value}: a known [type] with that kind's fields
    typed; histogram [buckets] as [\[index, n\]] pairs, indices in
    [\[0, Metrics.bucket_count)] strictly ascending, each [n > 0],
    summing to [count]; and [p50 <= p90 <= p99].  A metric's error
    reads ["metrics.NAME: MSG"].  The one check of battery reports,
    run by [tussle report FILE] through [Tussle_chaos.Artifact.check]. *)
