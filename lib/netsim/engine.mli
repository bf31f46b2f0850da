(** Discrete-event simulation engine.

    Events are closures scheduled at absolute simulation times.  The
    engine guarantees deterministic execution order: events fire in
    non-decreasing time, FIFO among events scheduled for the same time.
    Scheduling in the past raises [Invalid_argument].

    An event may schedule further events.  There is no cancellation: a
    timer that may become moot checks its own state when it fires.
    [run] drives the simulation to quiescence or to a time horizon. *)

type t

val create : unit -> t
(** Fresh engine at time [0.0]. *)

val now : t -> float
(** Current simulation time. *)

val schedule : t -> float -> (t -> unit) -> unit
(** [schedule t at f] fires [f] at absolute time [at].  Raises
    [Invalid_argument] if [at < now t] or [at] is not finite. *)

val schedule_after : t -> float -> (t -> unit) -> unit
(** [schedule_after t delay f] is [schedule t (now t +. delay) f].
    Raises [Invalid_argument] on negative [delay]. *)

val pending : t -> int
(** Number of events still queued. *)

val run : ?until:float -> t -> unit
(** Execute events until the queue is empty or the next event lies beyond
    [until].  On return with a finite [until], [now t = until] whether
    the queue drained early or the horizon cut execution short (the
    clock never moves backwards, so a horizon earlier than [now] is a
    no-op).  Without [until], [now] is the last executed event time.

    Telemetry: when {!Tussle_obs.Metrics} is enabled, every [run]
    also accumulates [engine.runs], [engine.events_executed], the
    [engine.queue_depth_high_water] gauge and the [engine.run_wall_s]
    / [engine.sim_per_wall] histograms, and opens an ["engine.run"]
    span when {!Tussle_obs.Trace} is enabled.  With telemetry disabled
    the event loop is unchanged. *)

val events_executed : t -> int
(** Count of events fired so far (diagnostics and benchmarks). *)

val queue_depth_high_water : t -> int
(** Largest number of simultaneously queued events seen over the
    engine's lifetime (sampled after every [schedule]). *)
