(** Probabilistic packet marking for IP traceback (§II-B).

    Savage's design premise, quoted by the paper: current solutions
    "are dependent on a model of cooperation that no longer exists
    universally in the network", and traceback is the canonical
    mechanism that works {e without} the attacker's cooperation — the
    victim reconstructs the attack path from marks that routers stamp
    into packets with some probability.

    This is the node-sampling variant: each router on the path
    overwrites the mark with probability [p].  A mark from the router
    [d] hops upstream of the victim survives with probability
    [p * (1-p)^(d-1)], so closer routers dominate the sample and the
    path order can be recovered by sorting mark counts. *)

type observation = (int * int) list
(** (router, marks received) pairs. *)

val simulate :
  Tussle_prelude.Rng.t -> path:int list -> p:float -> packets:int ->
  observation
(** [simulate rng ~path ~p ~packets]: [path] lists routers from the
    attacker side to the victim side (the victim is not included).
    Returns mark counts per router (routers with zero marks are
    included with count 0; a router listed twice shares one count).
    Raises [Invalid_argument] on [p] outside (0, 1) or a non-positive
    packet count.

    Each packet costs exactly one {!Tussle_prelude.Rng.bits} draw.  The
    mark is sampled from its exact distribution: the draw is compared
    with [k] integer thresholds, the [j]-th being [1 - (1-p)^j] scaled
    to 2{^62} (the [j] routers nearest the victim hold the mark with
    that probability), so the packet is unmarked with probability
    [(1-p)^k].  This is equal in distribution to letting every router
    overwrite the mark with probability [p] in turn, up to the 2{^-62}
    rounding of each threshold; the random stream is not the per-hop
    one. *)

val reconstruct : observation -> int list
(** Order routers by descending mark count (ties by router id): the
    inferred attacker-to-victim path is the reverse ordering —
    fewest-marked router first. *)

val accuracy : truth:int list -> guess:int list -> float
(** Fraction of positions where the inferred path names the right
    router; 1.0 on a perfect reconstruction.  0 when lengths differ. *)

val expected_marks : p:float -> distance:int -> packets:int -> float
(** The analytic expectation [packets * p * (1-p)^(distance-1)] for a
    router [distance] hops upstream of the victim — used to validate
    the simulation in tests. *)
