(** Behavior signatures: the coverage signal for adversarial search.

    A signature is a coarse canonical fingerprint of one run's
    {!Invariant.obs} ledger — per-reason drop profile (log2-bucketed),
    transfer terminal-state counts, self-healing reconvergence count,
    engine queue high-water, and leaked in-flight packets.  The
    coverage-guided mutator admits a mutant into its live corpus
    exactly when its signature is unseen, so the search spends its
    budget on plans that make the simulator {e behave} differently,
    not on plans that merely {e look} different. *)

val of_obs : Invariant.obs -> string
(** Canonical signature; equal ledgers yield equal strings, whatever
    order [losses] arrived in.  Drops are counted per artifact label
    ({!Tussle_netsim.Net.losses_by_label}), so one label's drops at
    several locations form one bucket. *)
