(** Information-exposure and policy-expressiveness metrics for routing
    protocols.

    §IV-C: "In the context of tussle, it matters if choices and the
    consequence of choices are visible."  These metrics quantify the
    BGP-vs-OSPF contrast the paper draws: a link-state protocol exports
    every internal cost; a path-vector protocol reveals only chosen
    paths, and offers a per-neighbour export veto that link-state cannot
    express. *)

val linkstate_exposure : Linkstate.t -> total_links:int -> float
(** Fraction of the topology's links whose cost is readable from the
    flooded database (1.0 whenever flooding succeeded). *)

val pathvector_exposure_at : Pathvector.t -> node:int -> total_links:int -> float
(** Exposure from a single vantage point: the links an observer sitting
    at [node] learns from the announcements it receives.  This is the
    honest comparison with link-state, where {e every} node sees the
    whole map. *)

val linkstate_policy_levers : Linkstate.t -> int
(** Number of per-neighbour export decisions a node can make in
    link-state routing: 0 — the protocol requires full export. *)

val pathvector_policy_levers :
  (Tussle_netsim.Topology.edge * Tussle_netsim.Topology.relationship)
  Tussle_prelude.Graph.t ->
  int
(** Number of independent export decisions available under path-vector:
    one veto per directed adjacency. *)
