module Graph = Tussle_prelude.Graph
module Rng = Tussle_prelude.Rng

type edge = { latency : float; bandwidth_bps : float }

type relationship = Customer_of | Provider_of | Peer_with | Internal

let default_edge = { latency = 0.001; bandwidth_bps = 100e6 }

let line ?(edge = default_edge) n =
  let g = Graph.create n in
  for i = 0 to n - 2 do
    Graph.add_undirected g i (i + 1) edge
  done;
  g

let line_forwarding ~node ~target _ =
  if target > node then Some (node + 1)
  else if target < node then Some (node - 1)
  else None

let ring ?(edge = default_edge) n =
  let g = line ~edge n in
  if n > 2 then Graph.add_undirected g (n - 1) 0 edge;
  g

let star n =
  let g = Graph.create n in
  for i = 1 to n - 1 do
    Graph.add_undirected g 0 i default_edge
  done;
  g

let grid rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Topology.grid: non-positive dims";
  let g = Graph.create (rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let u = (r * cols) + c in
      if c + 1 < cols then Graph.add_undirected g u (u + 1) default_edge;
      if r + 1 < rows then Graph.add_undirected g u (u + cols) default_edge
    done
  done;
  g

let barabasi_albert rng n m =
  if m < 1 || n <= m then invalid_arg "Topology.barabasi_albert: need n > m >= 1";
  let g = Graph.create n in
  (* endpoint multiset for preferential attachment *)
  let endpoints = ref [] in
  (* seed: clique on the first m+1 nodes *)
  for u = 0 to m do
    for v = u + 1 to m do
      Graph.add_undirected g u v default_edge;
      endpoints := u :: v :: !endpoints
    done
  done;
  (* The multiset only grows, by two endpoints per edge, to a size
     known up front; draws read its live prefix as [Rng.choice] would
     read the whole array. *)
  let eps = Array.make ((m * (m + 1)) + (2 * m * (n - m - 1))) 0 in
  let len = ref 0 in
  let push x =
    eps.(!len) <- x;
    incr len
  in
  List.iter push !endpoints;
  for u = m + 1 to n - 1 do
    let chosen = Hashtbl.create m in
    while Hashtbl.length chosen < m do
      let v = eps.(Rng.int rng !len) in
      if v <> u then Hashtbl.replace chosen v ()
    done;
    let added = Hashtbl.fold (fun v () acc -> v :: acc) chosen [] in
    List.iter
      (fun v ->
        Graph.add_undirected g u v default_edge;
        push u;
        push v)
      added
  done;
  g

type two_tier = {
  graph : (edge * relationship) Tussle_prelude.Graph.t;
  transits : int list;
  accesses : int list;
  hosts : int list;
  access_of_host : int -> int;
  transit_of_access : int -> int list;
}

let two_tier rng ~transits ~accesses ~hosts_per_access ~multihoming =
  if transits < 1 then invalid_arg "Topology.two_tier: need >= 1 transit";
  if multihoming < 1 || multihoming > transits then
    invalid_arg "Topology.two_tier: multihoming out of range";
  if accesses < 1 || hosts_per_access < 0 then
    invalid_arg "Topology.two_tier: bad parameters";
  let n = transits + accesses + (accesses * hosts_per_access) in
  let g = Graph.create n in
  let transit_ids = List.init transits (fun i -> i) in
  let access_ids = List.init accesses (fun i -> transits + i) in
  (* transit backbone: full peer mesh, fat low-latency pipes *)
  let backbone =
    { default_edge with bandwidth_bps = default_edge.bandwidth_bps *. 10.0 }
  in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u < v then begin
            Graph.add_edge g u v (backbone, Peer_with);
            Graph.add_edge g v u (backbone, Peer_with)
          end)
        transit_ids)
    transit_ids;
  (* access providers buy transit from [multihoming] distinct tier-1s *)
  let upstream = Hashtbl.create accesses in
  List.iter
    (fun a ->
      let ups =
        Array.to_list (Rng.sample rng multihoming (Array.of_list transit_ids))
      in
      Hashtbl.replace upstream a ups;
      List.iter
        (fun tpr ->
          Graph.add_edge g a tpr (default_edge, Customer_of);
          Graph.add_edge g tpr a (default_edge, Provider_of))
        ups)
    access_ids;
  (* hosts attach to their access provider *)
  let host_base = transits + accesses in
  let host_access = Hashtbl.create (accesses * hosts_per_access) in
  let hosts = ref [] in
  List.iteri
    (fun ai a ->
      for k = 0 to hosts_per_access - 1 do
        let h = host_base + (ai * hosts_per_access) + k in
        hosts := h :: !hosts;
        Hashtbl.replace host_access h a;
        Graph.add_edge g h a (default_edge, Customer_of);
        Graph.add_edge g a h (default_edge, Provider_of)
      done)
    access_ids;
  {
    graph = g;
    transits = transit_ids;
    accesses = access_ids;
    hosts = List.rev !hosts;
    access_of_host =
      (fun h ->
        match Hashtbl.find_opt host_access h with
        | Some a -> a
        | None -> invalid_arg "two_tier.access_of_host: not a host");
    transit_of_access =
      (fun a ->
        match Hashtbl.find_opt upstream a with
        | Some ups -> ups
        | None -> invalid_arg "two_tier.transit_of_access: not an access");
  }

let to_links g =
  Graph.map_edges g (fun e ->
    Link.make ~latency:e.latency ~bandwidth_bps:e.bandwidth_bps ())
