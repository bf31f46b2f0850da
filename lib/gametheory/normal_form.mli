(** Two-player normal-form (bimatrix) games.

    The paper (§II-B) frames tussle environments as games "rang\[ing\]
    from purely conflicting games (so called zero-sum games) ... to
    coordination games where actors have a common goal but fail to
    coordinate."  This module provides the representation, the standard
    taxonomy instances used by the experiments, and pure-strategy
    analysis; mixed equilibria live in {!Nash} and {!Zerosum}. *)

type t
(** A bimatrix game: row player payoffs [a], column player payoffs [b]. *)

val make : float array array -> float array array -> t
(** [make a b].  Both matrices must be non-empty and of identical,
    rectangular shape; raises [Invalid_argument] otherwise. *)

val rows : t -> int
val cols : t -> int

val payoff : t -> int -> int -> float * float
(** [payoff g i j] = (row payoff, column payoff) at pure profile (i,j). *)

val row_matrix : t -> float array array
val col_matrix : t -> float array array

val best_responses_row : t -> int -> int list
(** Row strategies maximizing row payoff against column's pure [j]. *)

val best_responses_col : t -> int -> int list

val pure_nash : t -> (int * int) list
(** All pure-strategy Nash equilibria, lexicographic order. *)

val expected_payoff : t -> float array -> float array -> float * float
(** Expected payoffs under mixed strategies (must be distributions of the
    right length; raises otherwise). *)

(** {2 The taxonomy instances used throughout the experiments} *)

val prisoners_dilemma : t
(** C/D with temptation 5, reward 3, punishment 1, sucker 0 — the
    one-shot peering/congestion tussle. *)

val matching_pennies : t
(** Purely conflicting (zero-sum), no pure equilibrium. *)

val pure_coordination : t
(** Two equilibria, same payoff: actors merely need to agree (standards
    choice). *)

val battle_of_sexes : t
(** Coordination with conflicting preferences — the "different but not
    adverse" interests of §V-D. *)

val chicken : t
(** Escalation game: encryption-vs-blocking brinkmanship of §VI-A. *)

val peering_game : t
(** Symmetric ISP peering: Peer/Refuse, where mutual peering saves
    transit cost but unilateral refusal free-rides (a PD variant with
    the paper's economic framing). *)
