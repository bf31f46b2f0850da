(** Minimal dense linear algebra: just enough to solve the small systems
    that support-enumeration Nash computation needs. *)

val solve : float array array -> float array -> float array option
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting.  [None] when [a] is (numerically) singular.  [a] and [b]
    are not mutated.  Raises [Invalid_argument] on shape mismatch. *)
