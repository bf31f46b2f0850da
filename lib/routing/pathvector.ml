module Graph = Tussle_prelude.Graph
module Topology = Tussle_netsim.Topology

type route_class = Own | Via_customer | Via_peer | Via_provider

type route = { dst : int; as_path : int list; cls : route_class }

type t = {
  n : int;
  (* rib.(node) : dst -> best route *)
  rib : (int, route) Hashtbl.t array;
  rounds : int;
  updates : int;
}

let class_rank = function
  | Own -> 0
  | Via_customer -> 1
  | Via_peer -> 2
  | Via_provider -> 3

(* Classification of a route at [u] learned from neighbour [v], given
   u's relationship toward v.  Internal edges behave like customer
   edges (single trust domain). *)
let classify rel =
  match rel with
  | Topology.Customer_of -> Via_provider (* v is u's provider *)
  | Topology.Provider_of -> Via_customer (* v is u's customer *)
  | Topology.Peer_with -> Via_peer
  | Topology.Internal -> Via_customer

(* Gao-Rexford export rule: own/customer routes to everyone; peer and
   provider routes only to customers (and over internal edges). *)
let exportable route rel_to_neighbor =
  match route.cls with
  | Own | Via_customer -> true
  | Via_peer | Via_provider -> begin
    match rel_to_neighbor with
    | Topology.Provider_of | Topology.Internal -> true
    | Topology.Customer_of | Topology.Peer_with -> false
  end

let better a b =
  let ra = class_rank a.cls and rb = class_rank b.cls in
  if ra <> rb then ra < rb
  else
    let la = List.length a.as_path and lb = List.length b.as_path in
    if la <> lb then la < lb
    else begin
      match (a.as_path, b.as_path) with
      | ha :: _, hb :: _ -> ha < hb
      | _, _ -> false
    end

let compute g =
  let n = Graph.node_count g in
  let max_rounds = (4 * n) + 8 in
  let rib = Array.init n (fun _ -> Hashtbl.create 16) in
  for u = 0 to n - 1 do
    Hashtbl.replace rib.(u) u { dst = u; as_path = []; cls = Own }
  done;
  let updates = ref 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < max_rounds do
    changed := false;
    incr rounds;
    (* snapshot of the previous round's RIBs for synchronous update *)
    let snapshot = Array.map Hashtbl.copy rib in
    for u = 0 to n - 1 do
      let import (v, (_, rel_uv)) =
        (* u learns from neighbour v what v exports toward u.  v's
           relationship toward u is the label on edge (v, u). *)
        let rel_vu =
          match Graph.find_edge g v u with
          | Some (_, r) -> r
          | None -> rel_uv (* asymmetric graph: assume declared symmetry *)
        in
        let consider _dst (r : route) =
          if (not (List.mem u r.as_path)) && r.dst <> u then
            if exportable r rel_vu then begin
              let candidate =
                { dst = r.dst; as_path = v :: r.as_path; cls = classify rel_uv }
              in
              match Hashtbl.find_opt rib.(u) r.dst with
              | Some cur when not (better candidate cur) -> ()
              | Some _ | None ->
                Hashtbl.replace rib.(u) r.dst candidate;
                incr updates;
                changed := true
            end
        in
        Hashtbl.iter consider snapshot.(v)
      in
      List.iter import (Graph.succ g u)
    done
  done;
  if !changed then failwith "Pathvector.compute: no convergence (policy dispute)";
  { n; rib; rounds = !rounds; updates = !updates }

let check t node name =
  if node < 0 || node >= t.n then invalid_arg (name ^ ": node out of range")

let route_at t ~node ~dst =
  check t node "Pathvector.route_at";
  check t dst "Pathvector.route_at";
  Hashtbl.find_opt t.rib.(node) dst

let next_hop t ~node ~dst =
  match route_at t ~node ~dst with
  | Some { as_path = hop :: _; _ } -> Some hop
  | Some { as_path = []; _ } | None -> None

let as_path t ~src ~dst =
  match route_at t ~node:src ~dst with
  | Some r when r.dst = dst && (r.as_path <> [] || src = dst) ->
    Some r.as_path
  | Some _ | None -> if src = dst then Some [] else None

let reachable t ~src ~dst =
  src = dst || Option.is_some (next_hop t ~node:src ~dst)

let reachability_ratio t =
  if t.n <= 1 then 1.0
  else begin
    let ok = ref 0 in
    for src = 0 to t.n - 1 do
      for dst = 0 to t.n - 1 do
        if src <> dst && reachable t ~src ~dst then incr ok
      done
    done;
    float_of_int !ok /. float_of_int (t.n * (t.n - 1))
  end

let forwarding t ~node ~target packet =
  ignore packet;
  if node = target then None else next_hop t ~node ~dst:target

let rounds_to_converge t = t.rounds

let updates_applied t = t.updates

let visible_paths t =
  let acc = ref [] in
  for src = t.n - 1 downto 0 do
    let add dst r = if dst <> src then acc := (src, dst, r.as_path) :: !acc in
    Hashtbl.iter add t.rib.(src)
  done;
  List.sort compare !acc
