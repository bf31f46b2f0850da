(** Directed graphs with integer nodes and labelled edges.

    Nodes are dense integers [0 .. node_count - 1].  Edge labels carry
    whatever the client needs (link metadata, business relationships).
    Shortest paths are computed against a client-supplied non-negative
    weight function, so the same graph serves latency, cost, and hop
    metrics. *)

type 'e t
(** A graph whose edges are labelled with ['e]. *)

val create : int -> 'e t
(** [create n] makes a graph with nodes [0 .. n-1] and no edges. *)

val node_count : 'e t -> int

val edge_count : 'e t -> int

val add_edge : 'e t -> int -> int -> 'e -> unit
(** [add_edge g u v label] adds a directed edge.  Multiple edges between the
    same pair are permitted.  Raises [Invalid_argument] on out-of-range
    nodes. *)

val add_undirected : 'e t -> int -> int -> 'e -> unit
(** Adds both [u -> v] and [v -> u] with the same label. *)

val succ : 'e t -> int -> (int * 'e) list
(** Out-neighbours with edge labels, in insertion order. *)

val find_edge : 'e t -> int -> int -> 'e option
(** First edge label from [u] to [v], if any. *)

val iter_edges : 'e t -> (int -> int -> 'e -> unit) -> unit

val fold_edges : 'e t -> init:'a -> f:('a -> int -> int -> 'e -> 'a) -> 'a

val map_edges : 'e t -> ('e -> 'f) -> 'f t

val dijkstra :
  'e t -> weight:('e -> float) -> source:int -> float array * int array
(** [dijkstra g ~weight ~source] returns [(dist, pred)]: distance from
    [source] to every node ([infinity] if unreachable) and predecessor node
    ([-1] for the source and unreachable nodes).  It is {!weights}
    followed by {!dijkstra_weights}: [weight] is evaluated once per edge,
    reachable or not, before the search starts.  A negative weight on an
    edge the search relaxes raises [Invalid_argument]. *)

type weights
(** One cost per edge of a graph, evaluated once and then fixed: later
    changes to whatever the costs were read from do not reach it. *)

val weights : 'e t -> (int -> int -> 'e -> float) -> weights
(** [weights g cost] evaluates [cost u v label] once per edge, in
    {!iter_edges} order. *)

val dijkstra_weights : 'e t -> weights -> source:int -> float array * int array
(** {!dijkstra} against costs taken by {!weights} from the same graph.
    Raises [Invalid_argument] if [g] has gained edges since.  The
    search's frontier is reused by every call on the same domain, so a
    call allocates only its [dist] and [pred]. *)

val settle : 'e t -> weights -> source:int -> target:int -> int array -> float
(** [settle g w ~source ~target pred] runs the {!dijkstra_weights}
    search from [source] into [pred] (one entry per node, overwritten)
    and stops as soon as [target] is settled: popped from the frontier,
    so its distance and predecessor are final.  It returns [target]'s
    distance, or [infinity] when [target] is unreachable; only then has
    the search run out of frontier, and [pred] is exactly
    {!dijkstra_weights}'s.  Otherwise [pred.(v)] is that of the full
    search, ties included, for [source] and for every [v] with
    [pred.(v) >= 0], the nodes settled; every other entry is negative.
    Every node strictly closer than [target] is settled.  Each call
    searches from [source] afresh.  The search's distances stay in the
    domain's scratch, so a call allocates only the boxed result. *)

val is_connected : 'e t -> bool
(** True when every node is reachable from node 0 in the underlying
    directed sense.  Vacuously true for the empty graph. *)
