(** Repeated two-player games: tussle "at run time" rather than one-shot.

    The paper observes that many Internet tussles (ISP peering above
    all) are not one-shot: parties meet again, and that is what
    disciplines them.  This module plays a stage game repeatedly between
    strategy automata and reports total payoffs; the peering experiment
    shows tit-for-tat sustaining the cooperation that the one-shot
    equilibrium destroys. *)

type strategy = {
  name : string;
  first : int;  (** opening move *)
  next : own_history:int list -> opp_history:int list -> int;
  (** next move given full histories, most recent first *)
}

val all_cooperate : strategy
val all_defect : strategy
val tit_for_tat : strategy
val grim_trigger : strategy

type match_result = {
  payoff_a : float;  (** total payoff over all rounds *)
  payoff_b : float;
  moves : (int * int) list;  (** chronological *)
}

val play : rounds:int -> Normal_form.t -> strategy -> strategy -> match_result
(** [play ~rounds g sa sb]: payoffs are plain sums over the rounds.
    Raises [Invalid_argument] on [rounds <= 0]. *)

val cooperation_rate : match_result -> float
(** Fraction of moves (both players) that were strategy 0
    ("cooperate"). *)
