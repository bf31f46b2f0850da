(** The [tussle.search-report/1] artifact emitted by [tussle search]:
    what the adversarial search over fault-plan space evaluated, the
    coverage frontier it grew, and every invariant violation it found
    (already shrunk to a 1-minimal reproducer).

    Like the sweep report there is deliberately {e no} wall-clock or
    domain-count field: the search contract is byte-identical output
    across [--domains] and across repeated runs at the same seed, so
    the artifact derives from (seed, config) alone. *)

type finding = {
  scenario : string;  (** chaos {!Tussle_chaos.Scenario.t} name *)
  seed : int;  (** injection seed the violation reproduces with *)
  found_episodes : int;  (** plan size as found, before shrinking *)
  minimal_plan : string;  (** 1-minimal reproducer in [Plan.to_string] form *)
  invariants : string list;  (** names of the violated invariants *)
  corpus_file : string;  (** persisted path; [""] when not persisted *)
}

type t = {
  label : string;
  backend : string;  (** ["mutate"] or ["exhaust"] today *)
  search_seed : int;
  budget : int;
  runs : int;  (** plans actually evaluated *)
  seeded : int;  (** corpus + fresh-draw candidates that primed the search *)
  space : int;  (** bounded-exhaustive box size; [0] for open-ended backends *)
  certified : bool;  (** whole box enumerated and came back clean *)
  frontier : int list;
      (** cumulative distinct behavior signatures after each batch;
          non-decreasing by construction *)
  corpus_added : int;  (** findings persisted as {e new} corpus files *)
  corpus_dir : string;  (** [""] when persistence was disabled *)
  findings : finding list;
}

val schema_tag : string
(** ["tussle.search-report/1"] *)

val to_json : t -> Json.t
(** Includes a [summary] object (runs / frontier / violations /
    corpus_added) recomputed from the payload. *)

val of_json : Json.t -> (t, string) result
(** Structural parse back into {!t}; fails with a message naming the
    first offending field. *)

val validate : Json.t -> (unit, string) result
(** The schema's check of a [tussle.search-report/1]: its tag, field
    presence and types; summary counts that match the payload; budget
    accounting ([0 <= runs <= budget]; the mutate backend spends its
    whole budget; the exhaust backend runs exactly [min budget space];
    certification requires an exhausted box with no findings); a
    coverage frontier that starts at 0, never shrinks, never exceeds
    [runs] and is non-empty for a non-empty run; [corpus_added] no
    larger than the number of findings that carry a corpus file; and
    every finding naming a scenario, a non-empty minimal plan and at
    least one violated invariant.  [Error] names the first problem.
    Checking each finding's corpus file needs the plan grammar:
    [Tussle_chaos.Corpus.check_findings] does it, and
    [Tussle_chaos.Artifact.check] runs both. *)

val summary : t -> string
(** Deterministic human-readable rendering (header, coverage line,
    one block per finding with the minimal plan inlined). *)
