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
    {- a machine-readable [tussle.flow-trace/1] JSON artifact carrying
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
(** Replay the entry with the recorder on.  [Error] names an unknown
    scenario.  The recorder is reset before and disabled after the
    replay, whatever state it was in. *)

val narrative_of_violation :
  entry:Corpus.entry ->
  events:Tussle_obs.Flight.event list ->
  Invariant.violation ->
  string
(** The per-violation attachment the chaos sweep prints: the offending
    flows' causal records (the same "flows of interest" section the
    full narrative carries), headed by the violation itself. *)

val schema : string
(** ["tussle.flow-trace/1"] *)

val to_json : result -> Tussle_obs.Json.t
(** The [tussle.flow-trace/1] artifact. *)

val validate_json : Tussle_obs.Json.t -> (unit, string) Stdlib.result
(** Structural check of a parsed artifact: schema tag, required
    fields, and per-event field types.  CI runs this on every
    [tussle explain --json] output. *)
