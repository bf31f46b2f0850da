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
      "pool": {                      // absent when stats were not recorded
        "workers": W, "tasks": [int], "busy_s": [float],
        "wall_s": <float>, "imbalance": <float>},
      "metrics": {
        "<name>": {"type": "counter", "value": <int>}
                | {"type": "gauge", "last": f, "max": f, "sets": n}
                | {"type": "histogram", "count": n, "sum": f,
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
      (** GC allocation delta of the running domain — approximate
          under parallelism *)
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
  ?label:string ->
  ?pool:pool ->
  ?metrics:(string * Metrics.value) list ->
  domains:int ->
  wall_s:float ->
  exp list ->
  t
(** [label] defaults to ["battery"]; [generated_at] is stamped from
    the system clock. *)

val imbalance : pool -> float

val to_json : t -> Json.t

val write : string -> t -> unit

val summary : t -> string
(** Human-readable: one table row per experiment (status, wall,
    events, allocation), totals line, pool balance line. *)

val experiments_of_json : Json.t -> (exp list, string) result
(** Check a parsed JSON value against the schema above — schema tag,
    required fields with the right types, a known status per
    experiment, and summary and pool counts consistent with the lists
    — and decode its experiment list.  The one reader of battery
    reports: {!validate}, [tussle trends] and [tussle perfgate] all go
    through it. *)

val validate : Json.t -> (unit, string) result
(** {!experiments_of_json}, keeping only the verdict.  Used by
    [tussle report FILE] and the CI smoke script. *)
