(** The simulation invariant registry.

    An invariant is a property that must hold at the end of {e every}
    run, whatever faults were injected: the simulator may drop, delay
    and abandon, but it may never lose track of a packet, leave the
    engine wedged, or let a transfer hang.  The chaos sweep validates
    the whole registry after each of its seeded fault plans; a
    violation is a simulator bug by definition, and the failing plan is
    shrunk ({!Shrink}) and persisted ({!Corpus}) as a regression.

    This registry is the intended home for future correctness checks:
    add an entry to {!all} and every sweep, replay, and test starts
    enforcing it. *)

type transfer_state = Completed | Abandoned | Active

type obs = {
  injected : int;  (** packets offered via [Net.inject] *)
  delivered : int;
  dropped : int;
  in_flight : int;  (** transits never completed *)
  engine_pending : int;  (** events still queued after the run *)
  clock_start : float;
  clock_end : float;
  losses : (Tussle_netsim.Net.drop_reason * int) list;
      (** [Net.losses]: the typed ledger the drop invariants match on *)
  link_fault_drops : int;  (** summed over distinct physical links *)
  link_corrupted : int;
  link_gray_drops : int;  (** covert drops the links themselves counted *)
  transfers : transfer_state list;  (** terminal status of each transport *)
  engine_high_water : int;  (** [Engine.queue_depth_high_water] *)
  reconvergences : int;  (** self-healing recomputes; 0 without a control plane *)
  covert_budget : int option;
      (** the scenario's claim, if it makes one: covert drops
          ([Gray_loss] + [Blackholed]) must not exceed this.  [None] (the
          default) asserts nothing — a random plan may legitimately
          gray out every path. *)
  fault_transitions : int option;
      (** [Plan.transitions] of the installed plan, when the scenario
          declares it: the normalizer for the reconvergence bound.
          [None] asserts nothing. *)
}
(** Everything the invariants inspect, captured after a run.
    [engine_high_water] is not checked by any invariant; it feeds the
    {!Signature} behavior fingerprint the adversarial search uses as
    its coverage signal. *)

val observe :
  ?transfers:transfer_state list ->
  ?reconvergences:int ->
  ?covert_budget:int ->
  ?fault_transitions:int ->
  clock_start:float ->
  Tussle_netsim.Engine.t ->
  Tussle_netsim.Net.t ->
  obs
(** Snapshot the ledgers of a finished run.  [transfers] carries the
    terminal status of any transport connections the scenario drove;
    [reconvergences] (default 0) the self-healing control plane's
    recompute count, if the scenario ran one.  [covert_budget] and
    [fault_transitions] arm the no-silent-blackhole budget check and
    the damping-bounds-reconvergence check respectively; omitted, those
    checks reduce to pure accounting (or nothing). *)

type violation = { invariant : string; detail : string }

val all : (string * (obs -> string option)) list
(** The registry, in check order: packet conservation
    ([injected = delivered + dropped + in-flight]), engine drained,
    monotone clock, drop accounting (per-reason sums match totals and
    the links' own fault counters), no hung transfer,
    no-silent-blackhole (every link-counted gray drop is attributed as
    [Gray_loss], and covert drops stay within [covert_budget] when
    one is declared), no-forwarding-loop (a ttl-exceeded drop with
    zero reconvergences means static tables looped), and
    damping-bounds-reconvergence ([reconvergences <= 4t + 4] against
    the declared [fault_transitions]). *)

val names : string list

val check : obs -> violation list
(** Run every registered invariant; [[]] means the run was clean. *)

val violation_string : violation -> string

(** {2 Sweep-report invariants}

    A second registry operating on the statistical artifact rather
    than a simulation run: every [tussle.sweep-report/1] the sweep
    driver produces must be internally consistent before it is
    written or trusted.  Same contract as {!all} — an entry returning
    [Some detail] is a bug in the statistical layer by definition. *)

val report_all :
  (string * (Tussle_obs.Sweep_report.t -> string option)) list
(** In check order: every metric's sample count matches its
    experiment's (and the sweep's) run count; each confidence interval
    brackets its recorded mean; the recorded mean agrees with the mean
    of the stored samples (relative 1e-9); means/stddevs/samples are
    finite with non-negative stddev. *)

val report_names : string list

val check_report : Tussle_obs.Sweep_report.t -> violation list
(** Run every report invariant; [[]] means the artifact is
    consistent. *)

(** {2 Search-report invariants}

    The same discipline for the [tussle.search-report/1] artifact the
    adversarial search emits: budget accounting, coverage-frontier
    monotonicity, and corpus bookkeeping are registry entries here,
    not bespoke asserts in the search driver. *)

val search_report_all :
  (string * (Tussle_obs.Search_report.t -> string option)) list
(** In check order: budget accounting ([runs <= budget]; the mutate
    backend spends its whole budget; the exhaust backend runs exactly
    [min budget space]; certification requires an exhausted box with
    no findings); the coverage frontier is non-negative, non-decreasing
    and bounded by [runs] (and non-empty coverage for a non-empty run);
    every persisted finding's corpus file name carries the hash of its
    minimal plan text and — when present on disk — loads back to
    exactly that reproducer; [corpus_added] never exceeds the findings
    that carry a corpus file. *)

val search_report_names : string list

val check_search_report : Tussle_obs.Search_report.t -> violation list
(** Run every search-report invariant; [[]] means the artifact is
    consistent. *)
