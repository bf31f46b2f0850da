(** Mixed-strategy Nash equilibria for bimatrix games.

    Two computations: the closed-form fully-mixed equilibrium of a 2×2
    game, and support enumeration for small games (the classic
    algorithm: for every pair of equal-size supports, solve the
    indifference system and check feasibility).  Support enumeration is
    exponential and intended for the taxonomy-size games the
    experiments use (≤ 4×4 or so). *)

type profile = { p : float array; q : float array }
(** Row and column mixed strategies. *)

val mixed_2x2 : Normal_form.t -> profile option
(** The fully-mixed equilibrium of a 2×2 game, when one exists with both
    strategies strictly mixed (e.g. matching pennies, chicken).  [None]
    when indifference cannot be achieved with interior probabilities.
    Raises [Invalid_argument] if the game is not 2×2. *)

val support_enumeration : Normal_form.t -> profile list
(** All equilibria found over equal-size supports of every size up to
    min(rows, cols).  Pure equilibria are included (support size 1).
    Complete for nondegenerate games. *)

val is_epsilon_nash : Normal_form.t -> profile -> epsilon:float -> bool
(** No player can gain more than [epsilon] by a pure deviation. *)
