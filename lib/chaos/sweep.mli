(** The chaos sweep: N seeded random fault plans vs. the invariants.

    Each run index deterministically picks a scenario (round-robin),
    draws a short random plan over that scenario's links, simulates it,
    and checks the whole {!Invariant} registry.  Derivation depends
    only on [(seed, index)], and the runs are fanned out with
    order-preserving {!Tussle_prelude.Pool.map} — so a sweep's result
    list (and anything rendered from it) is byte-identical for any
    [--domains] count. *)

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

val run_sweep : ?domains:int -> seed:int -> runs:int -> unit -> run list
(** Run [runs] chaos runs derived from master [seed], in index order.
    Raises [Invalid_argument] if [runs < 1]. *)

val failures : run list -> run list
(** The runs that violated at least one invariant. *)

val still_fails : Scenario.t -> seed:int -> Tussle_fault.Plan.t -> bool
(** Failure oracle: does simulating the scenario under this plan
    violate any invariant?  This is what {!shrink_run} minimizes
    against; exposed so tests can shrink plans for scenarios of their
    own (e.g. deliberately planted violations). *)

val shrink_run : run -> Tussle_fault.Plan.t
(** Delta-debug a failing run's plan to a 1-minimal reproducer
    (re-simulating the scenario with the run's own seed as oracle). *)

val replay : Corpus.entry -> (Invariant.violation list, string) result
(** Re-run a corpus entry against its scenario; [Ok []] means the
    once-failing reproducer now passes every invariant.  [Error] if
    {!Scenario.bind} rejects the entry: an unknown scenario name or a
    plan that does not fit the scenario. *)
