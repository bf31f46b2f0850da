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

(* A copy of [a] with twice the room (8 slots if empty), [fill] past
   its end. *)
let widen a fill =
  let len = Array.length a in
  let b = Array.make (if len = 0 then 8 else 2 * len) fill in
  Array.blit a 0 b 0 len;
  b

let reserve g label =
  if g.edges = Array.length g.dst then begin
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

(* Dijkstra's working memory, one per domain and reused by every call
   on it.  [dist] holds the distances of the current search; a caller
   that keeps them copies them out.  The frontier has two parts, and a
   pop takes the smaller head of the two by (key, push order), which is
   exactly the order of a single [Pqueue]:
   - the run, a FIFO of entries [run_head, run_tail) that takes every
     push whose key is at least the key of its last entry, so its keys
     never decrease and its head is its minimum.  When all costs are
     equal, every push lands here;
   - a {!Heap} of nodes on (key, push order), which takes every other
     push.
   Every heap entry was pushed while the run held a larger key, and the
   run's last key only grows until the run empties, which it can only
   do after the heap has: so a run entry with a key equal to a heap
   entry's was pushed earlier, and on equal keys the run comes first.
   The arrays only grow, by doubling: [dist] to the largest graph
   searched, the run's to the most pushes one call made onto it, the
   heap's to the most entries it held at once.  The kernel calls no
   user code, so no call finds them in use. *)
type scratch = {
  mutable dist : float array;
  mutable run_key : float array;
  mutable run_node : int array;
  mutable run_head : int;
  mutable run_tail : int;
  heap : Heap.t;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        dist = [||];
        run_key = [||];
        run_node = [||];
        run_head = 0;
        run_tail = 0;
        heap = Heap.create ();
      })

let grow_run s =
  s.run_key <- widen s.run_key 0.0;
  s.run_node <- widen s.run_node 0

(* The one Dijkstra kernel: a search from [source] into [pred] and the
   scratch's [dist] that stops once [target] is popped, or runs until
   the frontier is empty when no node is [target] (pass -1).  It
   returns whether the frontier ran out.
   A node's pushes carry strictly falling keys, so its first pop is the
   entry whose key equals [dist.(u)] and every later entry for it is
   stale: no visited marks are needed.  Costs are non-negative, so a
   popped node's [dist] and [pred] are final.  Until then its [pred]
   is stored as [-2 - u], and the pop decodes it: a stopped search
   leaves every node it has not popped negative, and a finished one
   leaves exactly the decoded tree.  Out-edges are relaxed newest
   first, and [pred] depends on that order when costs tie.  Once its
   domain's scratch has grown, a call allocates nothing. *)
let spf g (w : weights) ~source ~target pred =
  check_node g source "Graph.dijkstra";
  let s = Domain.DLS.get scratch in
  if Array.length s.dist < g.n then
    s.dist <- Array.create_float (max g.n (2 * Array.length s.dist));
  let dist = s.dist in
  Array.fill dist 0 g.n infinity;
  Array.fill pred 0 g.n (-1);
  if Array.length s.run_key = 0 then grow_run s;
  s.run_key.(0) <- 0.0;
  s.run_node.(0) <- source;
  s.run_head <- 0;
  s.run_tail <- 1;
  let heap = s.heap in
  Heap.clear heap;
  dist.(source) <- 0.0;
  let settled_target = ref false in
  while
    (not !settled_target) && (s.run_head < s.run_tail || heap.Heap.size > 0)
  do
    let h = s.run_head in
    let u =
      if
        h < s.run_tail
        && (heap.Heap.size = 0 || s.run_key.(h) <= heap.Heap.keys.(0))
      then begin
        s.run_head <- h + 1;
        let u = s.run_node.(h) in
        if s.run_key.(h) = dist.(u) then u else -1
      end
      else begin
        let u = heap.Heap.vals.(0) in
        let current = heap.Heap.keys.(0) = dist.(u) in
        Heap.pop heap;
        if current then u else -1
      end
    in
    if u >= 0 then begin
      let p = pred.(u) in
      if p < -1 then pred.(u) <- -2 - p;
      if u = target then settled_target := true
      else begin
        let d = dist.(u) in
        let e = ref g.head.(u) in
        while !e >= 0 do
          let c = w.(!e) in
          if c < 0.0 then invalid_arg "Graph.dijkstra: negative weight";
          let v = g.dst.(!e) in
          let nd = d +. c in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            pred.(v) <- -2 - u;
            let t = s.run_tail in
            if t = s.run_head || nd >= s.run_key.(t - 1) then begin
              if t = Array.length s.run_key then grow_run s;
              s.run_key.(t) <- nd;
              s.run_node.(t) <- v;
              s.run_tail <- t + 1
            end
            else Heap.push_keyed heap dist v
          end;
          e := g.next.(!e)
        done
      end
    end
  done;
  not !settled_target

let check_weights g (w : weights) name =
  if Array.length w <> g.edges then
    invalid_arg (name ^ ": weights of another graph")

let dijkstra_weights g w ~source =
  check_weights g w "Graph.dijkstra_weights";
  let pred = Array.make g.n (-1) in
  ignore (spf g w ~source ~target:(-1) pred);
  (Array.sub (Domain.DLS.get scratch).dist 0 g.n, pred)

let dijkstra g ~weight ~source =
  dijkstra_weights g (weights g (fun _ _ l -> weight l)) ~source

let settle g w ~source ~target pred =
  check_weights g w "Graph.settle";
  check_node g source "Graph.settle";
  check_node g target "Graph.settle";
  if Array.length pred <> g.n then invalid_arg "Graph.settle: pred of another size";
  if spf g w ~source ~target pred then infinity
  else (Domain.DLS.get scratch).dist.(target)

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
