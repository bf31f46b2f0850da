module Graph = Tussle_prelude.Graph
module Topology = Tussle_netsim.Topology
module Link = Tussle_netsim.Link

(* A row is one router's shortest-path tree, as its [pred] array, from
   a Dijkstra run against the costs snapshotted when the table was
   built.  The run stops once the queried destination is settled; a
   later query naming a node the row has not settled runs it again from
   the router, as far as that node.  A row whose run ran out of
   frontier is complete, and a node it has not settled is unreachable.
   An empty row has not been run yet. *)
type t = {
  n : int;
  settle : int -> int -> int array -> float; (* source, target, row *)
  pred : int array array; (* pred.(src).(dst) = predecessor on path from src *)
  complete : Bytes.t; (* '\001' at a complete row *)
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
    settle = (fun source target row -> Graph.settle g w ~source ~target row);
    pred = Array.make n [||];
    complete = Bytes.make n '\000';
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

(* Settle [dst] in the row of [src], running the row if it has not
   settled it yet; false when [dst] is unreachable. *)
let reach t src dst =
  dst = src
  ||
  let row =
    if Array.length t.pred.(src) > 0 then t.pred.(src)
    else begin
      let row = Array.make t.n (-1) in
      t.pred.(src) <- row;
      row
    end
  in
  row.(dst) >= 0
  || Bytes.get t.complete src = '\000'
     &&
     if t.settle src dst row < infinity then true
     else begin
       Bytes.set t.complete src '\001';
       false
     end

let path t ~src ~dst =
  check t src "Linkstate.path";
  check t dst "Linkstate.path";
  if not (reach t src dst) then None
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
  if node = dst || not (reach t node dst) then None
  else begin
    (* the hop is the node on the path whose predecessor is [node] *)
    let pred = t.pred.(node) in
    let rec walk v = if pred.(v) = node then v else walk pred.(v) in
    Some (walk dst)
  end

(* A run stopped at [dst] into a scratch row, not the table's: only
   tests read distances. *)
let distance t ~src ~dst =
  check t src "Linkstate.distance";
  check t dst "Linkstate.distance";
  let d = t.settle src dst (Array.make t.n (-1)) in
  if d = infinity then None else Some d

let forwarding t ~node ~target packet =
  ignore packet;
  next_hop t ~node ~dst:target

let visible_links t = t.visible
