(** Link-state routing (OSPF-like): every node floods its link costs,
    every node computes shortest paths over the full map.

    The tussle-relevant property (§IV-C): a link-state protocol "requires
    that everyone export his link costs" — internal choices are fully
    visible, and there is no per-neighbour policy lever.  The routing
    visibility experiment contrasts this with path-vector.

    A table is built in time linear in the edge count: building it
    snapshots every link cost, and nothing more.  Each router's row
    of its shortest-path tree is settled only as far as the queries
    have asked: {!next_hop} or {!path} about a router as the source
    runs a Dijkstra search from it, against the costs snapshotted at
    build time, until the destination is settled, and keeps what it
    settled.  A later query naming a node the row has not settled
    re-runs the search from the router, further.  Answers are
    therefore the same as if every tree had been computed up front,
    whatever order the queries come in, ties included; only routers
    that forward or are asked about cost a search, and a search stops
    at its destination.  The table reads the graph's shape when it
    runs a row, so the graph must not gain edges while the table is
    in use.  Because a query may run a row, a table must not be
    queried from two domains at once. *)

type t

val compute :
  Tussle_netsim.Topology.edge Tussle_prelude.Graph.t ->
  metric:[ `Latency | `Hops ] ->
  t
(** Snapshot the flooded map's costs; each node's search runs on its
    first query. *)

val compute_live :
  ?down:(int * int) list ->
  Tussle_netsim.Link.t Tussle_prelude.Graph.t ->
  metric:[ `Latency | `Hops ] ->
  t
(** Snapshot the map from a {e live} link graph, withdrawing every
    link between a pair in [down] (either orientation) — the
    incremental step a self-healing control plane runs after failure
    detection ({!Selfheal}).  Withdrawn links are not counted by
    {!visible_links}, and destinations reachable only through
    them become unreachable ([next_hop = None]).  [down] reflects what
    the control plane has {e detected}, not ground truth: a link that
    died a moment ago but has not yet missed enough hellos is still
    routed over. *)

val next_hop : t -> node:int -> dst:int -> int option
(** Forwarding table lookup. *)

val distance : t -> src:int -> dst:int -> float option
(** Shortest-path cost from a search from [src] stopped at [dst], run
    for this call into a scratch row: rows keep no distances. *)

val path : t -> src:int -> dst:int -> int list option
(** Full path [src; ...; dst]. *)

val forwarding : t -> Tussle_netsim.Net.forwarding
(** Adapt to the simulator's forwarding signature ([target]-based, so
    loose source routes work unchanged). *)

val visible_links : t -> int
(** How many directed links have their cost in the flooded database —
    what {e any} participant (or competitor) can read.  This is the
    protocol's information exposure. *)
