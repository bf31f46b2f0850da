(* The list-based Dijkstra that the flat graph replaced, kept as the
   oracle for [Graph.dijkstra] and [Graph.dijkstra_weights]: adjacency
   lists in reverse insertion order (the order the graph relaxes in),
   a visited array, one option/tuple per pop and a closure per
   relaxation.  Its frontier is one [Pqueue], so ties break on the
   same (key, push order) as the graph's run-plus-heap frontier must.
   [edges] lists [(u, v, cost)] in insertion order. *)

module Pqueue = Tussle_prelude.Pqueue

let dijkstra n edges ~source =
  let adj = Array.make n [] in
  List.iter (fun (u, v, w) -> adj.(u) <- (v, w) :: adj.(u)) edges;
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let visited = Array.make n false in
  let frontier = Pqueue.create () in
  dist.(source) <- 0.0;
  Pqueue.push frontier 0.0 source;
  let rec loop () =
    match Pqueue.pop frontier with
    | None -> ()
    | Some (d, u) ->
      if not visited.(u) then begin
        visited.(u) <- true;
        let relax (v, w) =
          let nd = d +. w in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            pred.(v) <- u;
            Pqueue.push frontier nd v
          end
        in
        List.iter relax adj.(u)
      end;
      loop ()
  in
  loop ();
  (dist, pred)
