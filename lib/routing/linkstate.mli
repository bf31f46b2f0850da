(** Link-state routing (OSPF-like): every node floods its link costs,
    every node computes shortest paths over the full map.

    The tussle-relevant property (§IV-C): a link-state protocol "requires
    that everyone export his link costs" — internal choices are fully
    visible, and there is no per-neighbour policy lever.  The routing
    visibility experiment contrasts this with path-vector.

    A table is built in time linear in the edge count: building it
    snapshots every link cost, and nothing more.  Each router's
    shortest-path tree is computed the first time {!next_hop},
    {!path} or {!distance} asks about that router as the source, from
    the costs snapshotted at build time, and is then kept.  Answers
    are therefore the same as if every tree had been computed up
    front, whatever order the queries come in; only routers that
    forward or are asked about cost a Dijkstra run.  The table reads
    the graph's shape when it fills a row, so the graph must not gain
    edges while the table is in use.  Because a query may fill in a
    row, a table must not be queried from two domains at once. *)

type t

val compute :
  Tussle_netsim.Topology.edge Tussle_prelude.Graph.t ->
  metric:[ `Latency | `Hops ] ->
  t
(** Snapshot the flooded map's costs; each node's Dijkstra runs on
    its first query. *)

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

val path : t -> src:int -> dst:int -> int list option
(** Full path [src; ...; dst]. *)

val forwarding : t -> Tussle_netsim.Net.forwarding
(** Adapt to the simulator's forwarding signature ([target]-based, so
    loose source routes work unchanged). *)

val visible_links : t -> int
(** How many directed links have their cost in the flooded database —
    what {e any} participant (or competitor) can read.  This is the
    protocol's information exposure. *)
