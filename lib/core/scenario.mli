(** The run-time tussle engine: mechanisms deployed, countered, and
    withdrawn, round after round.

    "There is no 'final outcome' of these interactions, no stable
    point" (§I).  Each round, actors move in id order: an actor deploys
    the available mechanism that most improves its utility (outcome
    alignment minus deployment cost), or withdraws one of its
    mechanisms if that helps, or passes.  The engine detects both
    fixpoints (the tussle settles) and cycles (the escalation never
    ends) — and the paper predicts, and the examples show, that some
    tussles genuinely cycle. *)

type move =
  | Deploy of string  (** mechanism name *)
  | Withdraw of string
  | Pass

type round = {
  index : int;
  moves : (int * move) list;  (** (actor id, move) in play order *)
  deployed_after : Mechanism.t list;  (** deployment order, oldest first *)
  outcome : Interest.stance;  (** net effect of the active set *)
}

type ending =
  | Fixpoint of int  (** settled after this many rounds *)
  | Cycle of { start : int; period : int }
      (** deployment state repeats: run-time tussle without end *)
  | Horizon  (** max rounds elapsed without fixpoint or detected cycle *)

type result = {
  rounds : round list;
  ending : ending;
  final_outcome : Interest.stance;
  utilities : (int * float) list;  (** final utility per actor id *)
}

val run :
  ?max_rounds:int ->
  actors:Actor.t list ->
  available:(Actor.kind -> Mechanism.t list) ->
  unit ->
  result
(** Run the tussle from an empty deployment (default horizon 50
    rounds).  Determinism: actors move in ascending id, and tie-breaks
    prefer earlier catalogue order. *)

val move_to_string : move -> string

val ending_to_string : ending -> string

val render : result -> string
(** What [tussle scenario] prints: one line per round in which some
    actor moved (its non-[Pass] moves as [id:move]), then the ending
    and the final outcome. *)
