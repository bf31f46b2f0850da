(** Best-response dynamics for finite n-player games given by a payoff
    oracle.

    This is the workhorse behind the investment experiments (the QoS
    deployment game of §VII): each player in turn switches to a best
    response against the others' current choices until no one wants to
    move — a pure Nash equilibrium — or a cycle is detected. *)

type game = {
  players : int;
  strategies : int array;  (** per-player strategy count *)
  payoff : int -> int array -> float;
      (** [payoff p profile] = player [p]'s payoff *)
}

val validate : game -> unit
(** Raises [Invalid_argument] on non-positive counts or length
    mismatch. *)

val is_pure_nash : game -> int array -> bool

val converge : game -> init:int array -> int array option
(** Round-robin best-response sweeps from [init].  [Some profile] when a
    full sweep produces no change (pure Nash); [None] if 1000 sweeps
    elapse — the dynamics cycle. *)

val all_pure_nash : game -> int array list
(** Exhaustive enumeration; exponential, for small games only. *)

val social_welfare : game -> int array -> float
(** Sum of payoffs at a profile. *)
