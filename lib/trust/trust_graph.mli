(** Pairwise trust with transitive derivation.

    Direct trust is a weight in [0,1] on a directed edge.  Derived trust
    between non-adjacent parties is the best multiplicative path product
    (computed as a shortest path in [-log] space), capped by a maximum
    delegation depth — trust attenuates with distance, as it should.

    This is the substrate for trust-mediated transparency (§V-B): a
    firewall admits a flow iff the destination's derived trust in the
    source clears a threshold. *)

type t

val create : int -> t
(** [create n]: parties [0 .. n-1], no trust edges. *)

val set_trust : t -> truster:int -> trustee:int -> float -> unit
(** Assert direct trust; weight outside [0,1] raises
    [Invalid_argument].  Re-setting overwrites. *)

val direct_trust : t -> truster:int -> trustee:int -> float
(** 0.0 when no edge (self-trust is 1.0). *)

val derived_trust : ?max_depth:int -> t -> truster:int -> trustee:int -> float
(** Best path product using at most [max_depth] edges (default 4).
    [1.0] for self; [0.0] when unreachable within the depth bound. *)

val trusts : ?max_depth:int -> t -> threshold:float -> int -> int -> bool
(** [trusts g ~threshold a b]: does [a]'s derived trust in [b] reach the
    threshold? *)

val add_mutual : t -> int -> int -> float -> unit
(** Symmetric trust in one call. *)
