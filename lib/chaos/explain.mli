(** [tussle explain]: replay a corpus reproducer with the flight
    recorder on and turn the causal event stream into a narrative.

    A {!Corpus.entry} (scenario, seed, plan) is replayed exactly as
    the chaos sweep ran it, but with {!Tussle_obs.Flight} enabled.
    The result is

    {ul
    {- a deterministic human-readable {e narrative}: the plan's
       episodes, the invariant verdict, the drop ledger, the
       control-plane timeline (fault windows opening and closing,
       failure detections, reconvergences), and the full causal record
       of the flows that dropped packets or gave up — each drop
       attributed to the fault episode whose window and location
       explain it;}
    {- a machine-readable [tussle.flow-trace/2] JSON artifact carrying
       the same verdict plus every retained event.}}

    Replay always runs in the calling domain: the scenarios are
    single-threaded simulations, so the narrative for a given
    (plan, seed) is byte-identical whatever [--domains] the CLI was
    asked for. *)

type result = {
  entry : Corpus.entry;
  obs : Invariant.obs;  (** the replayed run's final ledger *)
  violations : Invariant.violation list;  (** [[]] means clean *)
  events : Tussle_obs.Flight.event list;  (** ordered by (sim_t, seq) *)
  overwritten : int;  (** events lost to ring wrap-around *)
  narrative : string;  (** the rendered explanation *)
}

val run : Corpus.entry -> (result, string) Stdlib.result
(** Replay the entry with the recorder on.  [Error] when
    {!Scenario.bind} rejects the entry: an unknown scenario, or a plan
    naming a link or node the scenario lacks.  The recorder is reset
    before and disabled after the replay, whatever state it was in. *)

val run_on : Scenario.t -> Corpus.entry -> result
(** {!run} against a given scenario, which need not be registered: the
    entry's scenario name is not looked up, and its plan must fit. *)

val attribution : Tussle_fault.Plan.t -> Tussle_obs.Flight.event -> string
(** The narrative's verdict on one drop event: ["during episode [i]
    SPEC"] for every episode of the plan whose window and location
    explain the drop (joined by [", "]), or ["no episode open at this
    time"].  Wire-level drops must sit on the faulted link or node;
    route-dependent drops (no route, ttl exceeded, queue full) are
    explained by any open topology episode. *)

val narrative_of_violation :
  entry:Corpus.entry ->
  events:Tussle_obs.Flight.event list ->
  Invariant.violation ->
  string
(** The per-violation attachment the chaos sweep prints: the offending
    flows' causal records (the same "flows of interest" section the
    full narrative carries), headed by the violation itself. *)

val schema : string
(** ["tussle.flow-trace/2"] *)

val to_json : result -> Tussle_obs.Json.t
(** The [tussle.flow-trace/2] artifact.  Its ["events"] member is an
    object of columns, one array per field of {!Tussle_obs.Flight.event}
    ([t], [flow], [kind], [node], [peer], [detail], [value]), each
    [events_recorded] long.  The [kind] and [detail] columns hold
    indices into the string tables ["kinds"] and ["details"], which
    list every distinct string once, in first-seen order. *)

val validate_json : Tussle_obs.Json.t -> (unit, string) Stdlib.result
(** Structural check of a parsed artifact: schema tag, required
    fields, the string tables, and that every column has
    [events_recorded] elements of its type (a float column's finite),
    the index columns in range of their tables.  Every error starts ["flow-trace: "].  CI runs
    this on every [tussle explain --json] output. *)
