(** Reputation as a third-party trust signal (§V-B): "Web sites assess
    and report the reputation of other sites."

    Beta-reputation model (Jøsang & Ismail): each rating is a positive
    or negative observation; the score is the posterior mean
    [(pos + 1) / (pos + neg + 2)] of a Beta(pos+1, neg+1) — starting at
    an uninformed 0.5.  A forgetting factor discounts old evidence so
    reformed (or decayed) behaviour shows through. *)

type t

val create : ?forgetting:float -> int -> t
(** [create n]: reputation records for subjects [0 .. n-1].
    [forgetting] in (0, 1] scales existing evidence before each new
    rating (default 1.0 = never forget). *)

val rate : t -> subject:int -> good:bool -> unit

val score : t -> subject:int -> float
(** Posterior mean in (0, 1); 0.5 with no evidence. *)

val ranking : t -> (int * float) list
(** Subjects sorted by descending score (ties by id). *)
