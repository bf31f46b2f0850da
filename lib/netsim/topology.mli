(** Topology generators.

    Each generator returns a graph whose edges are labelled with link
    parameters ([edge] below, {!default_edge} unless the generator
    takes one), ready to be turned into live links by
    {!Net}.  The two-tier generator models the commercial Internet the
    paper reasons about: competing transit providers, local access
    providers, and customer hosts, with business relationships on each
    edge. *)

type edge = { latency : float; bandwidth_bps : float }

type relationship = Customer_of | Provider_of | Peer_with | Internal
(** Business relationship of the edge tail toward the head, used by the
    path-vector protocol's export policies. *)

val default_edge : edge
(** 1 ms, 100 Mb/s. *)

val line : ?edge:edge -> int -> edge Tussle_prelude.Graph.t
(** Path graph on [n] nodes (undirected links). *)

val line_forwarding : Net.forwarding
(** Static forwarding on a {!line}: one hop toward [target] (up or
    down the node ids), [None] at the target itself. *)

val ring : ?edge:edge -> int -> edge Tussle_prelude.Graph.t

val star : int -> edge Tussle_prelude.Graph.t
(** Node 0 is the hub. *)

val grid : int -> int -> edge Tussle_prelude.Graph.t
(** [grid rows cols]; node [(r,c)] is [r*cols + c]. *)

val barabasi_albert :
  Tussle_prelude.Rng.t -> int -> int -> edge Tussle_prelude.Graph.t
(** [barabasi_albert rng n m]: preferential attachment, [m] links per new
    node.  Connected by construction; heavy-tailed degrees like AS
    graphs.  Requires [n > m >= 1]. *)

type two_tier = {
  graph : (edge * relationship) Tussle_prelude.Graph.t;
  transits : int list;  (** tier-1 backbone ASes, fully meshed peers *)
  accesses : int list;  (** local access providers *)
  hosts : int list;  (** customer end hosts *)
  access_of_host : int -> int;  (** host's current access provider *)
  transit_of_access : int -> int list;  (** upstream transits of an access *)
}

val two_tier :
  Tussle_prelude.Rng.t ->
  transits:int ->
  accesses:int ->
  hosts_per_access:int ->
  multihoming:int ->
  two_tier
(** Commercial-Internet topology: [transits] tier-1 providers peered in a
    full mesh; each access provider buys transit from [multihoming]
    distinct tier-1s; each host attaches to one access provider.
    Requires [transits >= 1], [multihoming] in [1..transits]. *)

val to_links : edge Tussle_prelude.Graph.t -> Link.t Tussle_prelude.Graph.t
(** Instantiate live links from edge parameters (distinct link state per
    direction/edge). *)
