(* Tests for tussle.routing: link-state, path-vector (Gao-Rexford),
   source routing, overlay, visibility, and the self-healing control
   plane's failover edge cases. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Topology = Tussle_netsim.Topology
module Packet = Tussle_netsim.Packet
module Traffic = Tussle_netsim.Traffic
module Middlebox = Tussle_netsim.Middlebox
module Linkstate = Tussle_routing.Linkstate
module Pathvector = Tussle_routing.Pathvector
module Sourceroute = Tussle_routing.Sourceroute
module Overlay = Tussle_routing.Overlay
module Selfheal = Tussle_routing.Selfheal
module Visibility = Tussle_routing.Visibility
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Flight = Tussle_obs.Flight

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Linkstate ---------- *)

let test_linkstate_line () =
  let ls = Linkstate.compute (Topology.line 4) ~metric:`Hops in
  Alcotest.(check (option int)) "next hop" (Some 1)
    (Linkstate.next_hop ls ~node:0 ~dst:3);
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2; 3 ])
    (Linkstate.path ls ~src:0 ~dst:3);
  Alcotest.(check (option (float 1e-9))) "distance" (Some 3.0)
    (Linkstate.distance ls ~src:0 ~dst:3)

let test_linkstate_latency_metric () =
  let fast = { Topology.latency = 0.001; bandwidth_bps = 1e8 } in
  let g = Graph.create 3 in
  Graph.add_undirected g 0 1 { fast with Topology.latency = 0.010 };
  Graph.add_undirected g 0 2 fast;
  Graph.add_undirected g 2 1 fast;
  let ls = Linkstate.compute g ~metric:`Latency in
  Alcotest.(check (option (list int))) "low-latency detour" (Some [ 0; 2; 1 ])
    (Linkstate.path ls ~src:0 ~dst:1)

let test_linkstate_disconnected () =
  let g = Graph.create 3 in
  Graph.add_undirected g 0 1 Topology.default_edge;
  let ls = Linkstate.compute g ~metric:`Hops in
  Alcotest.(check (option int)) "no hop" None (Linkstate.next_hop ls ~node:0 ~dst:2);
  Alcotest.(check (option (float 1e-9))) "no distance" None
    (Linkstate.distance ls ~src:0 ~dst:2)

(* The eager all-pairs table that the lazy one replaced, kept as an
   oracle: it withdraws [down] links by a list scan, runs the list
   Dijkstra of [Graph_oracle] from every source up front, and reads
   next hops off full paths. *)
module Eager = struct
  module Link = Tussle_netsim.Link

  type t = {
    dist : float array array;
    pred : int array array;
    costs : (int * int * float) list;
  }

  let compute_live ?(down = []) links ~metric =
    let norm (u, v) = if u <= v then (u, v) else (v, u) in
    let dead = List.map norm down in
    let n = Graph.node_count links in
    let edges =
      Graph.fold_edges links ~init:[] ~f:(fun acc u v l ->
          let cost =
            if List.mem (norm (u, v)) dead then infinity
            else match metric with `Latency -> Link.latency l | `Hops -> 1.0
          in
          (u, v, cost) :: acc)
      |> List.rev
    in
    let rows =
      Array.init n (fun source -> Graph_oracle.dijkstra n edges ~source)
    in
    let costs = List.filter (fun (_, _, w) -> Float.is_finite w) edges in
    { dist = Array.map fst rows; pred = Array.map snd rows; costs }

  let path t ~src ~dst =
    if t.dist.(src).(dst) = infinity then None
    else begin
      let rec build node acc =
        if node = src then src :: acc
        else build t.pred.(src).(node) (node :: acc)
      in
      Some (build dst [])
    end

  let next_hop t ~node ~dst =
    if node = dst then None
    else
      match path t ~src:node ~dst with
      | Some (_ :: hop :: _) -> Some hop
      | Some _ | None -> None

  let distance t ~src ~dst =
    let d = t.dist.(src).(dst) in
    if d = infinity then None else Some d
end

(* A seeded random link graph: parallel links, one-way links, tied
   latencies, latencies spread over seven decades (so a search pushes
   onto the heap half of its frontier) and links of no cost (so keys
   tie between the run and the heap), and a random withdrawn set that
   names some pairs in either orientation, some with no link, and one
   with no node.  [Link.make] refuses a zero latency; 1e-300 vanishes
   when added to any distance past the first hop. *)
let random_live_graph seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 24 in
  let links = Graph.create n in
  let latency () =
    match Rng.int rng 4 with
    | 0 -> 1e-300
    | 1 -> 10.0 ** (Rng.float rng 7.0 -. 6.0)
    | _ -> 0.001 *. float_of_int (1 + Rng.int rng 3)
  in
  for _ = 1 to Rng.int rng (3 * n) do
    let u = Rng.int rng n and v = Rng.int rng n in
    let l = Tussle_netsim.Link.make ~latency:(latency ()) ~bandwidth_bps:1e6 () in
    if Rng.int rng 2 = 1 then Graph.add_undirected links u v l
    else Graph.add_edge links u v l
  done;
  let pairs =
    Graph.fold_edges links ~init:[] ~f:(fun acc u v _ -> (u, v) :: acc)
  in
  let down =
    List.filter (fun _ -> Rng.int rng 4 = 0) pairs
    @ [ (Rng.int rng n, Rng.int rng n); (n + 2, 0) ]
  in
  (rng, links, down)

let prop_linkstate_matches_eager =
  QCheck2.Test.make ~name:"lazy linkstate equals the eager all-pairs table"
    ~count:200 ~print:string_of_int QCheck2.Gen.small_nat (fun seed ->
      let rng, links, down = random_live_graph seed in
      let n = Graph.node_count links in
      List.for_all
        (fun metric ->
          let lz = Linkstate.compute_live ~down links ~metric in
          let eager = Eager.compute_live ~down links ~metric in
          (* every query, in an order that leaves rows to be computed at
             random points, so no answer may depend on which row came
             first *)
          let queries =
            Array.init (3 * n * n) (fun i -> (i mod 3, i / 3 / n, i / 3 mod n))
          in
          let queries = Rng.sample rng (Array.length queries) queries in
          let agrees (kind, src, dst) =
            match kind with
            | 0 ->
              Linkstate.next_hop lz ~node:src ~dst
              = Eager.next_hop eager ~node:src ~dst
            | 1 -> Linkstate.path lz ~src ~dst = Eager.path eager ~src ~dst
            | _ ->
              Linkstate.distance lz ~src ~dst = Eager.distance eager ~src ~dst
          in
          Linkstate.visible_links lz = List.length eager.costs
          && Array.for_all agrees queries)
        [ `Hops; `Latency ])

(* Queries that force re-runs: every (src, dst) pair, nearest first,
   so most queries name a node the row's last run stopped short of;
   then every pair again, farthest first, answered from settled rows. *)
let prop_linkstate_near_then_far =
  QCheck2.Test.make ~name:"targeted rows re-run near then far" ~count:200
    ~print:string_of_int QCheck2.Gen.small_nat (fun seed ->
      let rng, links, down = random_live_graph seed in
      let n = Graph.node_count links in
      List.for_all
        (fun metric ->
          let lz = Linkstate.compute_live ~down links ~metric in
          let eager = Eager.compute_live ~down links ~metric in
          let far (src, dst) = eager.Eager.dist.(src).(dst) in
          let pairs =
            Rng.sample rng (n * n) (Array.init (n * n) (fun i -> (i / n, i mod n)))
            |> Array.to_list
            |> List.stable_sort (fun a b -> Float.compare (far a) (far b))
          in
          let agrees (src, dst) =
            Linkstate.next_hop lz ~node:src ~dst
            = Eager.next_hop eager ~node:src ~dst
            && Linkstate.path lz ~src ~dst = Eager.path eager ~src ~dst
          in
          List.for_all agrees pairs && List.for_all agrees (List.rev pairs))
        [ `Hops; `Latency ])

(* Native only, with [Gc.minor] first so no collection falls inside
   the window.  On BA(1000, 2), once the domain's search scratch has
   grown: the first query from a source, to a neighbour, allocates its
   row ([n] ints, straight into the major heap) and a constant (the
   boxed distance [Graph.settle] returns, the [Some] and
   [Gc.counters]' own result); a re-run, to the farthest node, and an
   answer from the settled row allocate only that constant. *)
let test_linkstate_row_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 1000 in
    let links = Topology.to_links (Topology.barabasi_albert (Rng.create 9010) n 2) in
    let t = Linkstate.compute_live links ~metric:`Latency in
    (* a full search from 0 finds the farthest node and grows the
       scratch as far as any search from 0 needs *)
    let dist, _ =
      Graph.dijkstra links ~weight:Tussle_netsim.Link.latency ~source:0
    in
    let far = ref 0 in
    Array.iteri (fun v d -> if d > dist.(!far) then far := v) dist;
    let near = fst (List.hd (Graph.succ links 0)) in
    let words f =
      Gc.minor ();
      let minor0, promoted0, major0 = Gc.counters () in
      let hop = f () in
      let minor1, promoted1, major1 = Gc.counters () in
      Alcotest.(check bool) "routed" true (Option.is_some hop);
      minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
    in
    let within name bound f =
      let w = words f in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words <= %.0f" name w bound)
        true (w <= bound)
    in
    let constant = 16.0 in
    within "first query" (float_of_int (n + 1) +. constant) (fun () ->
        Linkstate.next_hop t ~node:0 ~dst:near);
    within "re-run" constant (fun () -> Linkstate.next_hop t ~node:0 ~dst:!far);
    within "settled row" constant (fun () ->
        Linkstate.next_hop t ~node:0 ~dst:near)
  end

let test_linkstate_exposure () =
  let g = Topology.line 4 in
  let ls = Linkstate.compute g ~metric:`Hops in
  Alcotest.(check int) "all links flooded" (Graph.edge_count g)
    (Linkstate.visible_links ls);
  check_float "exposure 1.0" 1.0
    (Visibility.linkstate_exposure ls ~total_links:(Graph.edge_count g))

(* ---------- Pathvector ---------- *)

(* helper: a plain graph where every edge is Internal (single domain) *)
let internal_graph base =
  Graph.map_edges base (fun e -> (e, Topology.Internal))

let test_pathvector_internal_reaches_all () =
  let pv = Pathvector.compute (internal_graph (Topology.ring 6)) in
  check_float "full reachability" 1.0 (Pathvector.reachability_ratio pv);
  (* shortest AS path on a 6-ring: 0 to 3 is 3 hops *)
  match Pathvector.as_path pv ~src:0 ~dst:3 with
  | Some path -> Alcotest.(check int) "path length" 3 (List.length path)
  | None -> Alcotest.fail "unreachable"

let two_tier_fixture seed =
  let rng = Rng.create seed in
  Topology.two_tier rng ~transits:3 ~accesses:4 ~hosts_per_access:2
    ~multihoming:2

let test_pathvector_two_tier_reachability () =
  let tt = two_tier_fixture 11 in
  let pv = Pathvector.compute tt.Topology.graph in
  check_float "all pairs reachable" 1.0 (Pathvector.reachability_ratio pv)

(* Gao-Rexford: no valley-free violation — once a path goes down (to a
   customer) it never goes up (to a provider) again, and at most one
   peer edge is crossed. *)
let valley_free g src path =
  let rel u v =
    match Graph.find_edge g u v with
    | Some (_, r) -> r
    | None -> Alcotest.fail "path uses missing edge"
  in
  let rec walk prev state = function
    | [] -> true
    | hop :: rest ->
      let r = rel prev hop in
      let ok, state' =
        match (r, state) with
        | Topology.Customer_of, `Up -> (true, `Up) (* going up to provider *)
        | Topology.Customer_of, (`Peered | `Down) -> (false, `Down)
        | Topology.Peer_with, `Up -> (true, `Peered)
        | Topology.Peer_with, (`Peered | `Down) -> (false, `Down)
        | Topology.Provider_of, _ -> (true, `Down) (* going down to customer *)
        | Topology.Internal, s -> (true, s)
      in
      ok && walk hop state' rest
  in
  walk src `Up path

let test_pathvector_valley_free () =
  let tt = two_tier_fixture 13 in
  let g = tt.Topology.graph in
  let pv = Pathvector.compute g in
  List.iter
    (fun (src, _dst, path) ->
      Alcotest.(check bool) "valley-free" true (valley_free g src path))
    (Pathvector.visible_paths pv)

let test_pathvector_prefers_customer_routes () =
  (* diamond: 0 is provider of 1 and 2; 3 is customer of 1 and 2; also
     0 peers with 3 via nothing... build: dst 3 reachable from 0 via
     customer chain.  Check class at 0 for dst 3 is customer. *)
  let g = Graph.create 4 in
  let e = Topology.default_edge in
  (* 1 and 2 are customers of 0 *)
  Graph.add_edge g 1 0 (e, Topology.Customer_of);
  Graph.add_edge g 0 1 (e, Topology.Provider_of);
  Graph.add_edge g 2 0 (e, Topology.Customer_of);
  Graph.add_edge g 0 2 (e, Topology.Provider_of);
  (* 3 is customer of 1 *)
  Graph.add_edge g 3 1 (e, Topology.Customer_of);
  Graph.add_edge g 1 3 (e, Topology.Provider_of);
  let pv = Pathvector.compute g in
  (match Pathvector.route_at pv ~node:0 ~dst:3 with
  | Some r ->
    Alcotest.(check bool) "class" true (r.Pathvector.cls = Pathvector.Via_customer)
  | None -> Alcotest.fail "no route");
  (* 2 reaches 3 via its provider 0 *)
  match Pathvector.route_at pv ~node:2 ~dst:3 with
  | Some r ->
    Alcotest.(check bool) "via provider" true (r.Pathvector.cls = Pathvector.Via_provider);
    Alcotest.(check (list int)) "path" [ 0; 1; 3 ] r.Pathvector.as_path
  | None -> Alcotest.fail "no provider route"

let test_pathvector_peer_not_transited () =
  (* two peered transits, each with a customer: customer of A reaches
     customer of B through the peer link (customer->provider->peer->
     customer: valley-free).  But peer A must NOT reach peer B's
     *other peer* via B.  Build three mutually unpeered transits:
     A - B peered, B - C peered, A and C not peered.  A must not reach
     C (B does not export peer routes to peers). *)
  let g = Graph.create 3 in
  let e = Topology.default_edge in
  Graph.add_edge g 0 1 (e, Topology.Peer_with);
  Graph.add_edge g 1 0 (e, Topology.Peer_with);
  Graph.add_edge g 1 2 (e, Topology.Peer_with);
  Graph.add_edge g 2 1 (e, Topology.Peer_with);
  let pv = Pathvector.compute g in
  Alcotest.(check bool) "A sees B" true (Pathvector.reachable pv ~src:0 ~dst:1);
  Alcotest.(check bool) "A cannot transit B to C" false
    (Pathvector.reachable pv ~src:0 ~dst:2)

let test_pathvector_visibility_less_than_linkstate () =
  let tt = two_tier_fixture 17 in
  let g = tt.Topology.graph in
  let pv = Pathvector.compute g in
  let total = Graph.edge_count g in
  (* from any single vantage point, path-vector reveals only the chosen
     paths; link-state floods everything to everyone *)
  let host = List.hd tt.Topology.hosts in
  let pv_exposure = Visibility.pathvector_exposure_at pv ~node:host ~total_links:total in
  Alcotest.(check bool) "path-vector hides some links" true (pv_exposure < 1.0);
  Alcotest.(check bool) "exposes something" true (pv_exposure > 0.0);
  Alcotest.(check int) "no levers in link-state" 0
    (Visibility.linkstate_policy_levers
       (Linkstate.compute (Topology.line 3) ~metric:`Hops));
  Alcotest.(check int) "one lever per adjacency" total
    (Visibility.pathvector_policy_levers g)

let test_pathvector_converges () =
  let tt = two_tier_fixture 19 in
  let pv = Pathvector.compute tt.Topology.graph in
  Alcotest.(check bool) "few rounds" true (Pathvector.rounds_to_converge pv < 20);
  Alcotest.(check bool) "did work" true (Pathvector.updates_applied pv > 0)

(* ---------- Sourceroute ---------- *)

let test_sourceroute_refusal () =
  let mb = Sourceroute.refusal_middlebox ~paid:false in
  let routed =
    Packet.make ~source_route:[ 5 ] ~id:0 ~src:0 ~dst:9 ~created:0.0 ()
  in
  Alcotest.(check bool) "refuses unpaid" true
    (Middlebox.decide mb routed = Middlebox.Drop);
  let plain = Packet.make ~id:1 ~src:0 ~dst:9 ~created:0.0 () in
  Alcotest.(check bool) "plain passes" true
    (Middlebox.decide mb plain = Middlebox.Forward);
  let paid = Sourceroute.refusal_middlebox ~paid:true in
  Alcotest.(check bool) "paid passes" true
    (Middlebox.decide paid routed = Middlebox.Forward)

(* ---------- Overlay ---------- *)

let test_overlay_recovery () =
  (* direct path 0->2 blocked, but 1 relays *)
  let can_reach a b = not (a = 0 && b = 2) in
  Alcotest.(check (option int)) "relay found" (Some 1)
    (Overlay.reachable_via ~can_reach ~candidates:[ 1 ] ~src:0 ~dst:2)

(* ---------- Multicast ---------- *)

module Multicast = Tussle_routing.Multicast

let test_multicast_tree_on_star () =
  (* star: source at hub; tree edge count = number of receivers *)
  let g = Topology.star 6 in
  let receivers = [ 1; 2; 3; 4; 5 ] in
  let tree = Multicast.shortest_path_tree g ~source:0 ~receivers in
  Alcotest.(check int) "tree edges" 5 (Multicast.multicast_link_load tree);
  Alcotest.(check (list int)) "all covered" receivers (Multicast.covered tree);
  (* unicast also crosses 5 links here: no sharing on a star *)
  Alcotest.(check int) "unicast" 5
    (Multicast.unicast_link_load g ~source:0 ~receivers);
  check_float "no saving on a star" 0.0
    (Multicast.savings_ratio g ~source:0 ~receivers)

let test_multicast_tree_on_line () =
  (* line 0-1-2-3: multicast to [1;2;3] uses 3 links, unicast 1+2+3=6 *)
  let g = Topology.line 4 in
  let receivers = [ 1; 2; 3 ] in
  let tree = Multicast.shortest_path_tree g ~source:0 ~receivers in
  Alcotest.(check int) "shared path" 3 (Multicast.multicast_link_load tree);
  Alcotest.(check int) "unicast" 6
    (Multicast.unicast_link_load g ~source:0 ~receivers);
  check_float "saving" 0.5 (Multicast.savings_ratio g ~source:0 ~receivers);
  (* interior nodes 0,1,2 hold state *)
  Alcotest.(check int) "router state" 3 (Multicast.router_state tree)

let test_multicast_unreachable_receiver () =
  let g = Graph.create 3 in
  Graph.add_undirected g 0 1 Topology.default_edge;
  let tree = Multicast.shortest_path_tree g ~source:0 ~receivers:[ 1; 2 ] in
  Alcotest.(check (list int)) "only reachable" [ 1 ] (Multicast.covered tree)

let test_multicast_savings_grow_with_group () =
  let rng = Rng.create 15 in
  let g = Topology.barabasi_albert rng 120 2 in
  let pool = Array.init 119 (fun i -> i + 1) in
  let saving size =
    let receivers = Array.to_list (Rng.sample rng size pool) in
    Multicast.savings_ratio g ~source:0 ~receivers
  in
  let small = saving 5 and large = saving 80 in
  Alcotest.(check bool) "bigger group saves more" true (large > small)

let test_multicast_deployment_ledger () =
  let base =
    { Multicast.groups = 10.0; state_cost = 1.0; bandwidth_value = 3.0;
      payment = false }
  in
  Alcotest.(check bool) "no payment no deploy" false (Multicast.deploys base);
  check_float "pure cost" (-10.0) (Multicast.isp_profit base);
  let paid = { base with Multicast.payment = true } in
  Alcotest.(check bool) "payment deploys" true (Multicast.deploys paid);
  check_float "profit" 20.0 (Multicast.isp_profit paid)

(* ---------- Selfheal: failover edge cases ---------- *)

(* hello 50 ms, 2 missed, 100 ms recompute throughout: detection +
   installation lands roughly 150-200 ms after a fault opens *)

let no_forwarding ~node:_ ~target:_ _ = None

let schedule_flow engine net gen ~src ~dst ~start ~interval ~count =
  for k = 0 to count - 1 do
    Engine.schedule engine
      (start +. (interval *. float_of_int k))
      (fun engine ->
        Net.inject net engine
          (Packet.make ~id:(Traffic.fresh_id gen) ~src ~dst
             ~created:(Engine.now engine) ()))
  done

let reason_count net label =
  Option.value ~default:0
    (List.assoc_opt label (Net.losses_by_label (Net.losses net)))

let test_selfheal_reroutes_around_outage () =
  let links = Topology.to_links (Topology.ring 6) in
  let net = Net.create links no_forwarding in
  let engine = Engine.create () in
  let heal = Selfheal.attach ~until:3.0 engine net in
  (* kill the first hop of the table's own chosen path 0 -> 3 *)
  let u, v =
    match Linkstate.path (Selfheal.table heal) ~src:0 ~dst:3 with
    | Some (a :: b :: _) -> (a, b)
    | _ -> Alcotest.fail "no initial path 0 -> 3"
  in
  Inject.install ~seed:5
    ~plan:[ Plan.Link_down { u; v; w = Plan.window 0.52 2.02 } ]
    engine net;
  let gen = Traffic.create () in
  schedule_flow engine net gen ~src:0 ~dst:3 ~start:0.1 ~interval:0.05
    ~count:40;
  (* sample the installed table mid-outage, after convergence *)
  let mid_hop = ref None in
  Engine.schedule engine 1.5 (fun _ ->
      mid_hop := Linkstate.next_hop (Selfheal.table heal) ~node:u ~dst:3);
  Engine.run ~until:600.0 engine;
  Alcotest.(check int) "down then up = two reconvergences" 2
    (Selfheal.reconvergences heal);
  (match Selfheal.detections heal with
  | [ (p1, `Down, t1); (p2, `Up, t2) ] ->
    Alcotest.(check bool) "watched pair detected" true (p1 = (min u v, max u v) || p1 = (u, v) || p1 = (v, u));
    Alcotest.(check bool) "same pair restored" true (p1 = p2);
    Alcotest.(check bool) "detection inside the outage" true
      (t1 > 0.52 && t1 < 0.75);
    Alcotest.(check bool) "restore detected after the window" true (t2 >= 2.02)
  | ds -> Alcotest.failf "expected down+up, got %d detections" (List.length ds));
  (match !mid_hop with
  | Some hop -> Alcotest.(check bool) "mid-outage table avoids dead link" true (hop <> v && hop <> u)
  | None -> Alcotest.fail "mid-outage table has no route from the detour node");
  Alcotest.(check bool) "most packets survive the outage" true
    (Net.delivered_count net >= 34);
  Alcotest.(check int) "every drop is attributed to the dead link"
    (Net.lost_count net)
    (reason_count net "link-down");
  Alcotest.(check int) "conservation" 40
    (Net.delivered_count net + Net.lost_count net);
  Alcotest.(check int) "engine drained" 0 (Engine.pending engine)

let test_selfheal_midflight_packets_survive () =
  (* slow ring: a packet already on the wire when its link dies still
     arrives; the next packet fails over via the recomputed table *)
  let edge = { Topology.latency = 0.2; bandwidth_bps = 1e8 } in
  let links = Topology.to_links (Topology.ring ~edge 6) in
  let net = Net.create links no_forwarding in
  let engine = Engine.create () in
  let heal = Selfheal.attach ~until:2.5 engine net in
  let u, v =
    match Linkstate.path (Selfheal.table heal) ~src:0 ~dst:3 with
    | Some (a :: b :: _) -> (a, b)
    | _ -> Alcotest.fail "no initial path 0 -> 3"
  in
  Inject.install ~seed:5
    ~plan:[ Plan.Link_down { u; v; w = Plan.window 0.52 100.0 } ]
    engine net;
  let gen = Traffic.create () in
  (* packet A is in flight on (u, v) when the window opens at 0.52 *)
  schedule_flow engine net gen ~src:0 ~dst:3 ~start:0.45 ~interval:1.05
    ~count:2;
  Engine.run ~until:600.0 engine;
  Alcotest.(check int) "both packets delivered" 2 (Net.delivered_count net);
  Alcotest.(check int) "nothing lost" 0 (Net.lost_count net);
  Alcotest.(check int) "engine drained" 0 (Engine.pending engine)

let test_selfheal_partition_is_clean_no_route () =
  (* a line has no alternate path: after detection the recomputed table
     must say no-route — packets drop cleanly, nothing hangs *)
  let links = Topology.to_links (Topology.line 3) in
  let net = Net.create links no_forwarding in
  let engine = Engine.create () in
  let heal = Selfheal.attach ~until:2.0 engine net in
  Inject.install ~seed:5
    ~plan:[ Plan.Link_down { u = 1; v = 2; w = Plan.window 0.52 infinity } ]
    engine net;
  let gen = Traffic.create () in
  schedule_flow engine net gen ~src:0 ~dst:2 ~start:0.1 ~interval:0.05
    ~count:36;
  Engine.run ~until:600.0 engine;
  Alcotest.(check int) "one reconvergence (never restored)" 1
    (Selfheal.reconvergences heal);
  Alcotest.(check (list (pair int int))) "believes the link down" [ (1, 2) ]
    (Selfheal.believed_down heal);
  Alcotest.(check bool) "recomputed table has no route" true
    (Linkstate.next_hop (Selfheal.table heal) ~node:0 ~dst:2 = None);
  Alcotest.(check bool) "pre-outage traffic delivered" true
    (Net.delivered_count net > 0);
  Alcotest.(check bool) "post-detection drops are clean no-route" true
    (reason_count net "no-route" > 0);
  Alcotest.(check bool) "detection-window drops hit the dead link" true
    (reason_count net "link-down" > 0);
  Alcotest.(check int) "conservation, nothing in flight" 36
    (Net.delivered_count net + Net.lost_count net);
  Alcotest.(check int) "engine drained despite infinite window" 0
    (Engine.pending engine)

let test_selfheal_flap_within_detection_window_coalesces () =
  (* two sub-detection-threshold flaps (each covers only one 50 ms
     hello, threshold is two) must not trigger any reconvergence *)
  let links = Topology.to_links (Topology.ring 6) in
  let net = Net.create links no_forwarding in
  let engine = Engine.create () in
  let heal = Selfheal.attach ~until:2.0 engine net in
  Inject.install ~seed:5
    ~plan:
      [
        Plan.Link_down { u = 0; v = 1; w = Plan.window 0.52 0.58 };
        Plan.Link_down { u = 0; v = 1; w = Plan.window 0.62 0.68 };
      ]
    engine net;
  let gen = Traffic.create () in
  schedule_flow engine net gen ~src:0 ~dst:3 ~start:0.1 ~interval:0.05
    ~count:30;
  Engine.run ~until:600.0 engine;
  Alcotest.(check int) "no reconvergence" 0 (Selfheal.reconvergences heal);
  Alcotest.(check (list (pair int int))) "nothing believed down" []
    (Selfheal.believed_down heal);
  Alcotest.(check int) "conservation" 30
    (Net.delivered_count net + Net.lost_count net);
  Alcotest.(check int) "engine drained" 0 (Engine.pending engine)

let test_selfheal_damping_suppresses_flap_churn () =
  (* a fast flap (0.2 s phases, well above the detection threshold)
     flips the believed state on every phase edge.  Hello-only healing
     recomputes on each flip; the verified plane damps: the penalty
     crosses the suppress threshold after a few flips and the adjacency
     is held down until the flapping stops and the penalty decays *)
  let flap =
    Plan.Link_flap
      { u = 0; v = 1; w = Plan.window 0.5 4.5; period_s = 0.4; duty = 0.5 }
  in
  let run detector =
    let links = Topology.to_links (Topology.ring 6) in
    let net = Net.create links no_forwarding in
    let engine = Engine.create () in
    let heal = Selfheal.attach ~detector ~until:12.0 engine net in
    Inject.install ~seed:5 ~plan:[ flap ] engine net;
    Engine.run ~until:600.0 engine;
    Alcotest.(check int) "engine drained" 0 (Engine.pending engine);
    heal
  in
  let damped = run Selfheal.Verified in
  let undamped = run Selfheal.Hello_only in
  Alcotest.(check bool) "hold-down engaged" true
    (Selfheal.suppressions damped >= 1);
  Alcotest.(check int) "hello-only never holds down" 0
    (Selfheal.suppressions undamped);
  Alcotest.(check bool) "damping cuts the recompute churn" true
    (Selfheal.reconvergences damped < Selfheal.reconvergences undamped);
  Alcotest.(check (list (pair int int)))
    "released once the flapping stopped" []
    (Selfheal.believed_down damped)

let test_selfheal_slow_flap_still_reconverges () =
  (* phase edges 4 s apart: the penalty decays well below the suppress
     threshold between flips, so damping never engages and the table
     keeps tracking the link through every phase *)
  let links = Topology.to_links (Topology.ring 6) in
  let net = Net.create links no_forwarding in
  let engine = Engine.create () in
  let heal =
    Selfheal.attach ~detector:Selfheal.Verified ~until:14.0 engine net
  in
  Inject.install ~seed:5
    ~plan:
      [ Plan.Link_flap
          { u = 0; v = 1; w = Plan.window 0.5 12.5; period_s = 8.0; duty = 0.5 } ]
    engine net;
  let gen = Traffic.create () in
  schedule_flow engine net gen ~src:0 ~dst:3 ~start:0.2 ~interval:0.1 ~count:60;
  Engine.run ~until:600.0 engine;
  Alcotest.(check int) "damping never engaged" 0
    (Selfheal.suppressions heal);
  Alcotest.(check bool) "every phase edge reconverged" true
    (Selfheal.reconvergences heal >= 3);
  Alcotest.(check (list (pair int int))) "ends with the link restored" []
    (Selfheal.believed_down heal);
  Alcotest.(check bool) "healing kept the flow alive" true
    (Net.delivered_count net >= 50);
  Alcotest.(check int) "engine drained" 0 (Engine.pending engine)

(* ---------- Selfheal: the transit-probe ring ---------- *)

(* A ring of [n] nodes whose links take [latency] seconds, the 0-1
   link [slow] seconds if given. *)
let latency_ring ?slow n latency =
  let g = Graph.create n in
  for i = 0 to n - 1 do
    let latency = match slow with Some s when i = 0 -> s | _ -> latency in
    Graph.add_undirected g i ((i + 1) mod n)
      { Topology.latency; bandwidth_bps = 1e8 }
  done;
  Topology.to_links g

(* Run a verified control plane on [links] to [until], with the nodes
   in [blackholes] Byzantine, [plan] injected and the flight recorder
   on.  It routes by hop count, so a probe takes its two direct legs
   whatever their latency.  Returns the transit probes' completions,
   in completion order, and each quarantine as (node, time), in time
   order. *)
let run_probes ?(blackholes = []) ?(plan = []) ~until links =
  let net = Net.create links no_forwarding in
  let engine = Engine.create () in
  let completions = Completed.record net in
  let (), events =
    Completed.with_flight (fun () ->
        ignore
          (Selfheal.attach ~detector:Selfheal.Verified ~metric:`Hops ~until
             engine net);
        Inject.install ~seed:1 ~plan engine net;
        List.iter (fun b -> Net.set_blackhole net b true) blackholes;
        Engine.run engine)
  in
  let probes =
    List.filter
      (fun ((p : Packet.t), _) -> p.Packet.id >= Selfheal.probe_id_base)
      (completions ())
  in
  let quarantines =
    List.filter_map
      (fun e ->
        if e.Flight.kind = "heal-quarantine" && e.Flight.detail = "quarantine"
        then Some (e.Flight.node, e.Flight.sim_t)
        else None)
      events
  in
  (probes, quarantines)

let nodes quarantines = List.sort_uniq compare (List.map fst quarantines)

let delivered (_, outcome) =
  match outcome with Net.Delivered _ -> true | Net.Lost _ -> false

(* A transit probe crosses two links.  At 0.2 s a link every probe is
   delivered 0.4 s after it left, past its 0.3 s deadline: the late
   answer is ignored, so every node collects the two strikes that
   quarantine it.  At 0.1 s a link every answer is in time.

   A late answer must not be credited to another probe either.  On a
   fast 6-ring with node 3 Byzantine, node 3 is quarantined at 0.4 s
   (its second deadline) and released at 2.4 s; the recomputed tables
   route through it again from 2.5 s, and its probes of 2.5 and 2.55 s
   time out at 2.8 and 2.85 s.  A 2 s latency spike on the 0-1 link
   from 0.5 to 0.6 s makes the probes through nodes 0 and 1 answer at
   about 2.5 s, while those probes of node 3 are outstanding. *)
let test_selfheal_late_probe_ignored () =
  let late, quarantines = run_probes ~until:0.5 (latency_ring 6 0.2) in
  Alcotest.(check bool) "probes sent" true (late <> []);
  Alcotest.(check bool) "every probe delivered" true
    (List.for_all delivered late);
  Alcotest.(check (list int)) "every late-answered node quarantined"
    [ 0; 1; 2; 3; 4; 5 ] (nodes quarantines);
  let _, quarantines = run_probes ~until:0.5 (latency_ring 6 0.1) in
  Alcotest.(check (list int)) "in-time answers quarantine nothing" []
    (nodes quarantines);
  let spike =
    Plan.Latency_spike { u = 0; v = 1; w = Plan.window 0.5 0.6; extra_s = 2.0 }
  in
  let _, quarantines =
    run_probes ~blackholes:[ 3 ] ~plan:[ spike ] ~until:4.0
      (latency_ring 6 0.001)
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "late answers credit no outstanding probe"
    [ (3, 0.4); (3, 2.85) ]
    quarantines

(* On a 6-ring whose 0-1 link is slow, the probes through nodes 0 and 1,
   the first two of every batch, complete after the others, and the
   ones through the Byzantine node 3 never do.  Each completion must
   land on its own probe: only node 3 is quarantined. *)
let test_selfheal_out_of_order_completions () =
  let probes, quarantines =
    run_probes ~blackholes:[ 3 ] ~until:2.0 (latency_ring ~slow:0.1 6 0.001)
  in
  let rec out_of_order = function
    | ((a : Packet.t), _) :: (((b : Packet.t), _) :: _ as rest) ->
      b.Packet.id < a.Packet.id || out_of_order rest
    | _ -> false
  in
  Alcotest.(check bool) "completions arrive out of id order" true
    (out_of_order probes);
  Alcotest.(check (list int)) "only the Byzantine node" [ 3 ]
    (nodes quarantines)

(* A 20-ring sends 20 probes per batch, and each stays outstanding for
   six or seven batches: the ring of judgments doubles from 16 slots to
   256, the last time at 0.4 s, after the first deadlines have moved
   its head, and more than twice 256 probes take its head round it.
   The Byzantine nodes' first two probes (sent at 0.05 and 0.1 s) are
   judged across that doubling, and must quarantine both at the
   second deadline, 0.4 s. *)
let test_selfheal_probe_ring_grows_and_wraps () =
  let probes, quarantines =
    run_probes ~blackholes:[ 7; 19 ] ~until:3.0 (latency_ring 20 0.001)
  in
  Alcotest.(check bool) "over 512 probes" true (List.length probes > 512);
  Alcotest.(check (list int)) "only the Byzantine nodes" [ 7; 19 ]
    (nodes quarantines);
  List.iter
    (fun b ->
      match List.assoc_opt b quarantines with
      | Some t -> check_float (Printf.sprintf "node %d at 0.4 s" b) 0.4 t
      | None -> Alcotest.failf "node %d never quarantined" b)
    [ 7; 19 ]

(* ---------- Selfheal: the probe window and attach's allocation ---------- *)

(* Widths 1-6 and samples with delivered <= offered, offered 0-8 (0
   keeps the empty-window 1.0 case reachable mid-stream). *)
let gen_window_stream =
  QCheck2.Gen.(
    pair (int_range 1 6)
      (list_size (int_range 0 40)
         (let* offered = int_range 0 8 in
          let* delivered = int_range 0 offered in
          return (delivered, offered))))

let prop_window_matches_list =
  QCheck2.Test.make ~name:"int-array window matches the list window"
    ~count:1000 gen_window_stream (fun (width, stream) ->
      let w = Selfheal.Window.create width and samples = ref [] in
      List.iteri
        (fun step (delivered, offered) ->
          Selfheal.Window.push w ~delivered ~offered;
          samples := Link_oracle.push_sample width !samples (delivered, offered);
          let a = Selfheal.Window.ratio w and b = Link_oracle.ratio !samples in
          if Int64.bits_of_float a <> Int64.bits_of_float b then
            QCheck2.Test.fail_reportf "step %d: array %h, list %h" step a b)
        stream;
      Selfheal.Window.ratio (Selfheal.Window.create width) = 1.0)

(* Native only (bytecode boxes differently), with [Gc.minor] first so
   no collection falls inside the window.  A hello-only control plane
   reads no direction buckets, windows or neighbour table, so attaching
   one to a fixed BA(200, 2) net allocates no more than the 43,652
   words it took when it still built the buckets (about 28,300 now). *)
let test_selfheal_hello_only_attach_words () =
  if Sys.backend_type = Sys.Native then begin
    let links =
      Topology.to_links (Topology.barabasi_albert (Rng.create 9010) 200 2)
    in
    let net = Net.create links (fun ~node:_ ~target:_ _ -> None) in
    let engine = Engine.create () in
    Gc.minor ();
    let before = Gc.minor_words () in
    ignore (Selfheal.attach ~detector:Selfheal.Hello_only ~until:1.0 engine net);
    let words = Gc.minor_words () -. before in
    Alcotest.(check bool)
      (Printf.sprintf "%.0f words <= 43652" words)
      true (words <= 43652.0)
  end

let () =
  Alcotest.run "routing"
    [
      ( "linkstate",
        [
          Alcotest.test_case "line" `Quick test_linkstate_line;
          Alcotest.test_case "latency metric" `Quick test_linkstate_latency_metric;
          Alcotest.test_case "disconnected" `Quick test_linkstate_disconnected;
          Alcotest.test_case "full exposure" `Quick test_linkstate_exposure;
          Alcotest.test_case "row allocation" `Quick test_linkstate_row_allocation;
          QCheck_alcotest.to_alcotest prop_linkstate_matches_eager;
          QCheck_alcotest.to_alcotest prop_linkstate_near_then_far;
        ] );
      ( "pathvector",
        [
          Alcotest.test_case "internal reaches all" `Quick
            test_pathvector_internal_reaches_all;
          Alcotest.test_case "two-tier reachability" `Quick
            test_pathvector_two_tier_reachability;
          Alcotest.test_case "valley-free" `Quick test_pathvector_valley_free;
          Alcotest.test_case "customer preference" `Quick
            test_pathvector_prefers_customer_routes;
          Alcotest.test_case "peers not transited" `Quick
            test_pathvector_peer_not_transited;
          Alcotest.test_case "visibility vs linkstate" `Quick
            test_pathvector_visibility_less_than_linkstate;
          Alcotest.test_case "convergence" `Quick test_pathvector_converges;
        ] );
      ( "sourceroute",
        [
          Alcotest.test_case "refusal middlebox" `Quick test_sourceroute_refusal;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "star tree" `Quick test_multicast_tree_on_star;
          Alcotest.test_case "line tree" `Quick test_multicast_tree_on_line;
          Alcotest.test_case "unreachable receiver" `Quick
            test_multicast_unreachable_receiver;
          Alcotest.test_case "savings grow" `Quick
            test_multicast_savings_grow_with_group;
          Alcotest.test_case "deployment ledger" `Quick
            test_multicast_deployment_ledger;
        ] );
      ( "overlay",
        [
          Alcotest.test_case "recovery" `Quick test_overlay_recovery;
        ] );
      ( "selfheal",
        [
          Alcotest.test_case "reroutes around an outage" `Quick
            test_selfheal_reroutes_around_outage;
          Alcotest.test_case "mid-flight packets survive" `Quick
            test_selfheal_midflight_packets_survive;
          Alcotest.test_case "partition is clean no-route" `Quick
            test_selfheal_partition_is_clean_no_route;
          Alcotest.test_case "flap inside detection window" `Quick
            test_selfheal_flap_within_detection_window_coalesces;
          Alcotest.test_case "damping suppresses flap churn" `Quick
            test_selfheal_damping_suppresses_flap_churn;
          Alcotest.test_case "slow flap still reconverges" `Quick
            test_selfheal_slow_flap_still_reconverges;
          Alcotest.test_case "late probe answer ignored" `Quick
            test_selfheal_late_probe_ignored;
          Alcotest.test_case "out-of-order probe completions" `Quick
            test_selfheal_out_of_order_completions;
          Alcotest.test_case "probe ring grows and wraps" `Quick
            test_selfheal_probe_ring_grows_and_wraps;
          QCheck_alcotest.to_alcotest prop_window_matches_list;
          Alcotest.test_case "hello-only attach allocation" `Quick
            test_selfheal_hello_only_attach_words;
        ] );
    ]
