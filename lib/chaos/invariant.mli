(** The simulation invariant registry.

    An invariant is a property that must hold at the end of {e every}
    run, whatever faults were injected: the simulator may drop, delay
    and abandon, but it may never lose track of a packet, leave the
    engine wedged, or let a transfer hang.  The chaos sweep validates
    the whole registry after each of its seeded fault plans; a
    violation is a simulator bug by definition, and the failing plan is
    shrunk ({!Shrink}) and persisted ({!Corpus}) as a regression.

    This registry is the intended home for future correctness checks
    on simulation runs: add an entry to {!all} and every sweep, replay,
    and test starts enforcing it.  JSON artifacts are checked by their
    own schema's validator, through {!Artifact.check}. *)

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

val names : string list

val check : obs -> violation list
(** Run every registered invariant; [[]] means the run was clean. *)

val violation_string : violation -> string
