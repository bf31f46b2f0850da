(** Name registry with trademark contention: the DNS design lesson
    (§IV-A).

    "The current design is entangled in debate because DNS names are
    used both to name machines and to express trademark ... names that
    express trademarks should be used for as little else as possible."

    Two registry designs are offered:

    {ul
    {- {b Entangled}: one namespace serves machine naming, mailbox
       naming and brand expression (the deployed DNS).  A trademark
       dispute over a label seizes the label — and with it every
       machine and mailbox bound under it: the dispute {e spills over}
       into unrelated function.}
    {- {b Separated}: brand expression lives in its own directory;
       machines and mailboxes hang off stable, dispute-proof
       identifiers.  The same dispute seizes only the brand entry.}}

    Spillover — service bindings broken per dispute — is the isolation
    metric of experiment E7. *)

type design = Entangled | Separated

type purpose = Machine | Mailbox | Brand

type t

val create : design -> t

val register :
  t -> owner:string -> label:string -> purpose ->
  (unit, [ `Taken of string ]) result
(** Register a binding.  In the [Entangled] design, one label is one
    slot regardless of purpose (first owner takes all purposes); in
    [Separated], the brand directory and the service namespace are
    independent, and distinct owners may hold [label] as a brand and as
    a machine name. *)

val lookup : t -> label:string -> purpose -> string option
(** Owner of the binding, if live (not seized). *)

val dispute :
  t -> claimant:string -> label:string ->
  [ `Transferred of purpose list | `No_target ]
(** A trademark holder wins a dispute over [label]: the brand binding
    transfers to the claimant.  In [Entangled], every purpose bound to
    the label transfers with it (machines and mailboxes break for their
    former owner); in [Separated], only the brand entry moves.  Returns
    the purposes whose service was disrupted for the previous owner
    (excluding [Brand] itself). *)

val bindings : t -> (string * purpose * string) list
(** All live (label, purpose, owner) triples, sorted. *)

val disruptions : t -> int
(** Total service bindings (machines + mailboxes) broken by disputes so
    far. *)

val disputes_filed : t -> int

val spillover : t -> float
(** [disruptions / disputes_filed]; 0 before any dispute.  The paper
    predicts ≈ 0 for [Separated] and > 0 for [Entangled]. *)
