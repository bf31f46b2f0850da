(** Zero-sum game solving: the "purely conflicting" pole of the paper's
    game taxonomy, solved to the von Neumann minimax value.

    Solver: fictitious play (Brown 1951; Robinson 1951 proved
    convergence for zero-sum games).  Deterministic — ties are broken
    toward the lowest index, and the empirical mixtures converge to
    optimal strategies with the game value bracketed at every step. *)

type solution = {
  value_lower : float;  (** best guaranteed row payoff so far *)
  value_upper : float;  (** best column cap so far *)
  row_strategy : float array;  (** empirical mixture *)
  col_strategy : float array;
  iterations : int;
}

val solve : ?iterations:int -> float array array -> solution
(** [solve a] runs fictitious play on the row-payoff matrix [a]
    (default 10_000 iterations).  [value_lower <= v* <= value_upper]. *)

val value_estimate : solution -> float
(** Midpoint of the bracket. *)

val gap : solution -> float
(** [value_upper -. value_lower]; convergence diagnostic. *)
