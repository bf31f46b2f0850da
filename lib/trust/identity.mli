(** Identity framework (§V-B1): "a framework for talking about identity,
    not a single identity scheme."

    Principals present themselves under one of several schemes; each
    scheme carries a different accountability level, and counterparties
    apply their own acceptance policies.  The anonymity tussle is
    explicit: one may act anonymously, but "many people will choose not
    to communicate with you if you do" — and a compromise outcome is
    that disguising the {e fact} of anonymity should be hard. *)

type scheme =
  | Real_name of string  (** legally bound identity *)
  | Role of string  (** e.g. "admin-of:mit.edu"; accountable via the role *)
  | Pseudonym of string  (** stable but unlinked to a person *)
  | Anonymous

type principal = { id : int; presented : scheme }

val accountability : scheme -> float
(** How strongly actions can be tied back to a responsible party:
    real name 1.0, role 0.8, pseudonym 0.4, anonymous 0.0. *)

val disguised_anonymity : claimed:scheme -> actual:scheme -> bool
(** True when the presentation hides the fact of anonymity (claims a
    binding scheme while actually anonymous) — the behaviour the paper
    says a good design makes hard. *)

type acceptance_policy = {
  min_accountability : float;
  accept_pseudonyms : bool;
}

val open_policy : acceptance_policy
(** Accept anyone (the early-Internet default). *)

val accountable_only : acceptance_policy
(** Require accountability >= 0.8: the "many will choose not to
    communicate with you" stance. *)

val accepts : acceptance_policy -> scheme -> bool
