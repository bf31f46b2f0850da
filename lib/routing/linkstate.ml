module Graph = Tussle_prelude.Graph
module Topology = Tussle_netsim.Topology
module Link = Tussle_netsim.Link

(* Each router's shortest-path tree is computed the first time a query
   asks about that router, against the costs snapshotted when the
   table was built, and then kept.  An empty row has not been computed
   yet; a computed row has [n > 0] entries. *)
type t = {
  n : int;
  spf : int -> float array * int array; (* Dijkstra from one source *)
  dist : float array array; (* dist.(src).(dst) *)
  pred : int array array; (* pred.(src).(dst) = predecessor on path from src *)
  visible : int; (* edges of finite cost *)
}

(* Snapshot [cost] over every edge of [g].  An [infinity] cost masks
   an edge completely: it can never relax a distance, so a node
   reachable only through masked edges stays at [dist = infinity] —
   unreachable, exactly like a withdrawn link. *)
let snapshot g cost =
  let visible = ref 0 in
  let w =
    Graph.weights g (fun u v e ->
        let c = cost u v e in
        if Float.is_finite c then incr visible;
        c)
  in
  let n = Graph.node_count g in
  {
    n;
    spf = (fun source -> Graph.dijkstra_weights g w ~source);
    dist = Array.make n [||];
    pred = Array.make n [||];
    visible = !visible;
  }

let compute g ~metric =
  snapshot g (fun _ _ (e : Topology.edge) ->
      match metric with `Latency -> e.Topology.latency | `Hops -> 1.0)

let compute_live ?(down = []) links ~metric =
  let n = Graph.node_count links in
  let key u v = if u <= v then (u * n) + v else (v * n) + u in
  let dead = Hashtbl.create 8 in
  List.iter
    (fun (u, v) ->
      (* a pair naming no node withdraws no link *)
      if 0 <= u && u < n && 0 <= v && v < n then Hashtbl.replace dead (key u v) ())
    down;
  snapshot links (fun u v l ->
      if Hashtbl.mem dead (key u v) then infinity
      else match metric with `Latency -> Link.latency l | `Hops -> 1.0)

let check t node name =
  if node < 0 || node >= t.n then invalid_arg (name ^ ": node out of range")

let row t src =
  if Array.length t.dist.(src) = 0 then begin
    let d, p = t.spf src in
    t.dist.(src) <- d;
    t.pred.(src) <- p
  end

let path t ~src ~dst =
  check t src "Linkstate.path";
  check t dst "Linkstate.path";
  row t src;
  if t.dist.(src).(dst) = infinity then None
  else begin
    let pred = t.pred.(src) in
    let rec build node acc =
      if node = src then src :: acc else build pred.(node) (node :: acc)
    in
    Some (build dst [])
  end

let next_hop t ~node ~dst =
  check t node "Linkstate.next_hop";
  check t dst "Linkstate.next_hop";
  if node = dst then None
  else begin
    row t node;
    if t.dist.(node).(dst) = infinity then None
    else begin
      (* the hop is the node on the path whose predecessor is [node] *)
      let pred = t.pred.(node) in
      let rec walk v = if pred.(v) = node then v else walk pred.(v) in
      Some (walk dst)
    end
  end

let distance t ~src ~dst =
  check t src "Linkstate.distance";
  check t dst "Linkstate.distance";
  row t src;
  let d = t.dist.(src).(dst) in
  if d = infinity then None else Some d

let forwarding t ~node ~target packet =
  ignore packet;
  next_hop t ~node ~dst:target

let visible_links t = t.visible
