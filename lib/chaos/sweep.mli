(** The chaos sweep: N seeded random fault plans vs. the invariants.

    Each run index deterministically picks a scenario (round-robin),
    draws a short random plan over that scenario's links, simulates it,
    and checks the whole {!Invariant} registry.  Derivation depends
    only on [(seed, index)], and the runs are fanned out with
    order-preserving {!Tussle_prelude.Pool.map} — so a sweep's result
    list (and anything rendered from it) is byte-identical for any
    [--domains] count. *)

type found = {
  scenario : string;
  seed : int;  (** injection seed the violation reproduces with *)
  plan : Tussle_fault.Plan.t;  (** as found *)
  minimal : Tussle_fault.Plan.t;  (** 1-minimal, via {!Shrink} *)
  violations : Invariant.violation list;  (** of the plan as found *)
  attachment : string;
      (** {!Explain.narrative_of_violation} of each violation the
          minimal plan's replay shows (those of the plan as found if it
          shows none) *)
  file : string option;  (** corpus path, when persistence is on *)
  fresh : bool;  (** the corpus file was newly created, not a dedup hit *)
}

type run = {
  index : int;
  scenario : string;
  seed : int;  (** per-run injection/traffic seed *)
  episodes : int;
  plan : Tussle_fault.Plan.t;
  violations : Invariant.violation list;  (** [[]] = clean run *)
}

val run_one : master_seed:int -> int -> run
(** One sweep run by index: derive scenario + plan + seed, simulate,
    check the registry.  [run_sweep] is [Pool.map] over this. *)

val run_sweep : seed:int -> runs:int -> unit -> run list
(** Run [runs] chaos runs derived from master [seed], in index order.
    Raises [Invalid_argument] if [runs < 1]. *)

val failures : run list -> run list
(** The runs that violated at least one invariant. *)

val still_fails : Scenario.t -> seed:int -> Tussle_fault.Plan.t -> bool
(** Failure oracle: does simulating the scenario under this plan
    violate any invariant?  This is what {!resolve} minimizes against;
    exposed so tests can shrink plans for scenarios of their own (e.g.
    deliberately planted violations). *)

val replay : Corpus.entry -> (Invariant.violation list, string) result
(** Re-run a corpus entry against its scenario; [Ok []] means the
    once-failing reproducer now passes every invariant.  [Error] if
    {!Scenario.bind} rejects the entry: an unknown scenario name or a
    plan that does not fit the scenario. *)

(** {1 Shrink, explain, persist}

    What becomes of every violating plan, whether the chaos sweep or
    the adversarial search found it. *)

val explain_file : string -> string
(** [dir/NAME.plan] -> [dir/NAME.explain.txt]: where {!resolve} writes
    a reproducer's attachment. *)

val resolve :
  ?corpus_dir:string ->
  Scenario.t ->
  seed:int ->
  plan:Tussle_fault.Plan.t ->
  Invariant.violation list ->
  found
(** Delta-debug a violating plan to a 1-minimal reproducer (the
    scenario re-simulated with [seed] as oracle), replay it with the
    flight recorder on ({!Explain.run_on}) for the attachment, and,
    with [corpus_dir], save it there ({!Corpus.save}: created if
    missing, deduplicated by scenario and plan text) with the
    attachment beside it in {!explain_file} (rewritten on a dedup hit).
    Raises [Sys_error] when the corpus cannot be written. *)

(** {1 [tussle chaos]} *)

type sweep = {
  master_seed : int;
  runs : int;
  found : (run * found) list;  (** every violating run, in index order *)
}

val sweep : ?corpus_dir:string -> seed:int -> runs:int -> unit -> sweep
(** {!run_sweep}, then {!resolve} every violating run (persisting into
    [corpus_dir] when given).  Raises [Invalid_argument] if [runs < 1]
    and [Sys_error] when the corpus cannot be written. *)

val render_sweep : sweep -> string
(** The sweep's stdout: the header, per violating run its violations,
    the shrunk plan, the attachment and the saved paths, then the
    clean/violation count. *)

type replayed = {
  dir : string;
  entries :
    (string * (Corpus.entry * Invariant.violation list, string) result) list;
      (** per [*.plan] file, by basename in sorted order: the entry and
          its {!replay} violations, or why it did not load or bind *)
}

val replay_dir : string -> (replayed, string) result
(** {!replay} every entry of {!Corpus.load_dir}[ dir]; [Error] when the
    directory cannot be read. *)

val failing : replayed -> int
(** Entries that did not load or bind, or that violate an invariant. *)

val render_replay : replayed -> string
(** The replay's stdout: one line per entry (ok, LOAD ERROR, or
    VIOLATION and its violations), then the verdict. *)
