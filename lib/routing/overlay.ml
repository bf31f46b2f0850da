module Graph = Tussle_prelude.Graph

let reachable_via ~can_reach ~candidates ~src ~dst =
  let ordered = List.sort compare candidates in
  List.find_opt
    (fun r -> r <> src && r <> dst && can_reach src r && can_reach r dst)
    ordered

let path_alive ls links ~src ~dst =
  if src = dst then true
  else
    match Linkstate.path ls ~src ~dst with
    | None -> false
    | Some path ->
      let rec alive = function
        | a :: (b :: _ as rest) -> begin
          match Graph.find_edge links a b with
          | Some l -> Tussle_netsim.Link.is_up l && alive rest
          | None -> false
        end
        | _ -> true
      in
      alive path

let failover_waypoints ~can_reach ~candidates ~src ~dst =
  if can_reach src dst then Some []
  else
    match reachable_via ~can_reach ~candidates ~src ~dst with
    | Some r -> Some [ r ]
    | None -> None
