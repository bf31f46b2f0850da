(** Path-vector inter-domain routing (BGP-like) with business policies.

    This is the paper's canonical "interface designed for tussle"
    (§IV-C): ISPs interconnect but are competitors, so the protocol lets
    each node choose and re-advertise routes according to private
    policy, and reveals only the chosen paths — "a path vector protocol
    makes it harder to see what the internal choices are."

    Policies follow Gao–Rexford:
    {ul
    {- {b Preference}: customer-learned routes over peer-learned over
       provider-learned; then shorter AS path; then lower next-hop id.}
    {- {b Export}: own and customer-learned routes go to every
       neighbour; peer- and provider-learned routes go to customers
       only.}}

    Edges labelled {!Tussle_netsim.Topology.Internal} belong to a single
    trust domain: they are treated as customer edges in both directions
    (always exported, maximally preferred), which reduces to shortest
    AS-path routing on policy-free graphs. *)

type route_class = Own | Via_customer | Via_peer | Via_provider

type route = {
  dst : int;
  as_path : int list;  (** next hop first, destination last *)
  cls : route_class;
}

type t

val compute :
  (Tussle_netsim.Topology.edge * Tussle_netsim.Topology.relationship)
  Tussle_prelude.Graph.t ->
  t
(** Run synchronous path-vector rounds to a fixpoint.  Non-convergence
    within [4 * node_count + 8] rounds raises [Failure] (policy dispute
    wheel). *)

val as_path : t -> src:int -> dst:int -> int list option
(** Chosen AS path from [src] (exclusive) to [dst] (inclusive). *)

val route_at : t -> node:int -> dst:int -> route option

val reachable : t -> src:int -> dst:int -> bool

val reachability_ratio : t -> float
(** Fraction of ordered node pairs (src <> dst) with a route. *)

val forwarding : t -> Tussle_netsim.Net.forwarding

val rounds_to_converge : t -> int

val updates_applied : t -> int
(** Total number of best-route changes during convergence (message-load
    proxy). *)

val visible_paths : t -> (int * int * int list) list
(** What an outside observer of the routing system sees: the {e chosen}
    (src, dst, path) triples — and nothing about internal costs or
    rejected alternatives. *)
