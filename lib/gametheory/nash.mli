(** Mixed-strategy Nash equilibria for bimatrix games.

    Support enumeration for small games (the classic algorithm: for
    every pair of equal-size supports, solve the indifference system and
    check feasibility).  It is exponential and intended for the
    taxonomy-size games the experiments use (≤ 4×4 or so). *)

type profile = { p : float array; q : float array }
(** Row and column mixed strategies. *)

val support_enumeration : Normal_form.t -> profile list
(** All equilibria found over equal-size supports of every size up to
    min(rows, cols).  Pure equilibria are included (support size 1).
    Complete for nondegenerate games. *)

val is_epsilon_nash : Normal_form.t -> profile -> epsilon:float -> bool
(** No player can gain more than [epsilon] by a pure deviation. *)
