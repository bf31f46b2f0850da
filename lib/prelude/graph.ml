(* Forward-star adjacency on flat int-indexed arrays.  Edge [e] runs
   from some node to [dst.(e)] with label [label.(e)]; edge ids are
   assigned in insertion order.  Each node's out-edges form a doubly
   linked chain through the edge arrays: [head.(u)] is the newest edge
   and [next] steps to older ones (the order Dijkstra relaxes in),
   [first.(u)] is the oldest and [later] steps to newer ones (the
   insertion order {!succ} and {!iter_edges} promise).  [-1] ends a
   chain.  Adding an edge is a few array writes; the edge arrays grow
   by doubling. *)
type 'e t = {
  n : int;
  head : int array;
  first : int array;
  mutable next : int array;
  mutable later : int array;
  mutable dst : int array;
  (* Grown alongside [dst], but seeded from a real label rather than a
     placeholder, so a [float t] keeps a flat float array. *)
  mutable label : 'e array;
  mutable edges : int;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  {
    n;
    head = Array.make n (-1);
    first = Array.make n (-1);
    next = [||];
    later = [||];
    dst = [||];
    label = [||];
    edges = 0;
  }

let node_count g = g.n

let edge_count g = g.edges

let check_node g u name =
  if u < 0 || u >= g.n then invalid_arg (name ^ ": node out of range")

let reserve g label =
  let cap = Array.length g.dst in
  if g.edges = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let widen a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 g.edges;
      b
    in
    g.next <- widen g.next (-1);
    g.later <- widen g.later (-1);
    g.dst <- widen g.dst 0;
    g.label <- widen g.label label
  end

let add_edge g u v label =
  check_node g u "Graph.add_edge";
  check_node g v "Graph.add_edge";
  reserve g label;
  let e = g.edges in
  g.dst.(e) <- v;
  g.label.(e) <- label;
  let newest = g.head.(u) in
  g.next.(e) <- newest;
  g.later.(e) <- -1;
  if newest < 0 then g.first.(u) <- e else g.later.(newest) <- e;
  g.head.(u) <- e;
  g.edges <- e + 1

let add_undirected g u v label =
  add_edge g u v label;
  add_edge g v u label

let succ g u =
  check_node g u "Graph.succ";
  (* newest to oldest, consing, gives insertion order *)
  let rec collect e acc =
    if e < 0 then acc else collect g.next.(e) ((g.dst.(e), g.label.(e)) :: acc)
  in
  collect g.head.(u) []

let find_edge g u v =
  check_node g u "Graph.find_edge";
  check_node g v "Graph.find_edge";
  let rec scan e =
    if e < 0 then None
    else if g.dst.(e) = v then Some g.label.(e)
    else scan g.later.(e)
  in
  scan g.first.(u)

let iter_edges g f =
  for u = 0 to g.n - 1 do
    let e = ref g.first.(u) in
    while !e >= 0 do
      f u g.dst.(!e) g.label.(!e);
      e := g.later.(!e)
    done
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v e -> acc := f !acc u v e);
  !acc

let map_edges g fn =
  let h = create g.n in
  iter_edges g (fun u v e -> add_edge h u v (fn e));
  h

type weights = float array

let weights g cost =
  let w = Array.create_float g.edges in
  for u = 0 to g.n - 1 do
    let e = ref g.first.(u) in
    while !e >= 0 do
      w.(!e) <- cost u g.dst.(!e) g.label.(!e);
      e := g.later.(!e)
    done
  done;
  w

(* The Dijkstra driver both cost sources share.  [scan dist pred
   frontier u] relaxes [u]'s out-edges, newest first: ties in the heap
   break on push order, and pred depends on that order when weights
   are equal.  A node's first pop carries its last and smallest push,
   so its distance is read from [dist], not from the heap, and a pop
   allocates nothing. *)
let spf g ~source scan =
  check_node g source "Graph.dijkstra";
  let dist = Array.make g.n infinity in
  let pred = Array.make g.n (-1) in
  let visited = Bytes.make g.n '\000' in
  (* Room for one entry per node: a node queued again before its first
     pop is rare on sparse graphs, and the heap still grows if needed.
     Sizing to the edge count, the true bound, triples the allocation. *)
  let frontier = Pqueue.create ~capacity:g.n () in
  dist.(source) <- 0.0;
  Pqueue.push frontier 0.0 source;
  while not (Pqueue.is_empty frontier) do
    let u = Pqueue.pop_min frontier in
    if Bytes.get visited u = '\000' then begin
      Bytes.set visited u '\001';
      scan dist pred frontier u
    end
  done;
  (dist, pred)

let[@inline] relax dist pred frontier u v d c =
  if c < 0.0 then invalid_arg "Graph.dijkstra: negative weight";
  let nd = d +. c in
  if nd < dist.(v) then begin
    dist.(v) <- nd;
    pred.(v) <- u;
    Pqueue.push frontier nd v
  end

let dijkstra_weights g (w : weights) ~source =
  if Array.length w <> g.edges then
    invalid_arg "Graph.dijkstra_weights: weights of another graph";
  spf g ~source (fun dist pred frontier u ->
      let d = dist.(u) in
      let e = ref g.head.(u) in
      while !e >= 0 do
        relax dist pred frontier u g.dst.(!e) d w.(!e);
        e := g.next.(!e)
      done)

let dijkstra g ~weight ~source =
  spf g ~source (fun dist pred frontier u ->
      let d = dist.(u) in
      let e = ref g.head.(u) in
      while !e >= 0 do
        relax dist pred frontier u g.dst.(!e) d (weight g.label.(!e));
        e := g.next.(!e)
      done)

let bfs_order g source =
  check_node g source "Graph.bfs_order";
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  seen.(source) <- true;
  Queue.add source queue;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let u = Queue.take queue in
    order := u :: !order;
    let e = ref g.first.(u) in
    while !e >= 0 do
      let v = g.dst.(!e) in
      if not seen.(v) then begin
        seen.(v) <- true;
        Queue.add v queue
      end;
      e := g.later.(!e)
    done
  done;
  List.rev !order

let is_connected g =
  g.n = 0 || List.length (bfs_order g 0) = g.n

let transpose g =
  let h = create g.n in
  iter_edges g (fun u v e -> add_edge h v u e);
  h

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for u = 0 to g.n - 1 do
    let rec count e d = if e < 0 then d else count g.next.(e) (d + 1) in
    let d = count g.head.(u) 0 in
    let cur = Option.value ~default:0 (Hashtbl.find_opt tbl d) in
    Hashtbl.replace tbl d (cur + 1)
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare
