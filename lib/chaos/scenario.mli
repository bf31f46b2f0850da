(** Chaos scenario checkers.

    A scenario is a small, self-contained simulation that the chaos
    sweep can subject to an arbitrary fault plan: it builds a fresh
    network and engine, installs the plan, drives deterministic
    traffic from [seed], runs to a guard horizon, and returns the
    {!Invariant.obs} ledger for the registry to judge.  Scenarios
    never assert anything themselves — "correct under faults" is
    defined once, by the invariant registry, not per scenario. *)

type t = {
  name : string;  (** stable id; used in corpus files and CLI output *)
  links : (int * int) list;
      (** the node pairs a random plan may target ([Plan.random]'s
          [links] argument) — exactly the scenario's physical links *)
  horizon : float;
      (** the window within which random fault episodes are drawn;
          well before the run's guard horizon so the engine can
          drain *)
  run : seed:int -> plan:Tussle_fault.Plan.t -> Invariant.obs;
}

val line_transfer : t
(** [line-transfer]: a retrying {!Tussle_netsim.Transport} transfer
    over a 4-node line — exercises retransmission, backoff and the
    give-up budget under faults. *)

val ring_verified : t
(** [ring-verified]: the same ring and traffic healed by
    {!Tussle_routing.Selfheal.Verified} — data-plane adjacency
    probing, transit probes with quarantine, and flap damping, under
    the full extended fault grammar. *)

val all : t list

val find : string -> t option

val fits : t -> Tussle_fault.Plan.t -> (unit, string) result
(** [Ok ()] when every episode acts on one of the scenario's [links]
    (either direction) or on a node they span — what
    {!Tussle_fault.Inject.install} needs to compile the plan onto the
    scenario's network.  Otherwise [Error] naming the first episode
    that does not, e.g. [line-transfer has no link 0-99 (episode "link
    0-99 down [1, 2)")]. *)

val bind : string -> Tussle_fault.Plan.t -> (t, string) result
(** The named scenario, provided the plan {!fits} it: how a corpus
    entry is bound to its scenario before it runs.  [Error] on an
    unknown name or a plan that does not fit. *)
