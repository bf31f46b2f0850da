(* Integration tests: substrates wired together the way the bench
   harness uses them. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Middlebox = Tussle_netsim.Middlebox
module Net = Tussle_netsim.Net
module Traffic = Tussle_netsim.Traffic
module Linkstate = Tussle_routing.Linkstate
module Pathvector = Tussle_routing.Pathvector
module Sourceroute = Tussle_routing.Sourceroute
module Trust_graph = Tussle_trust.Trust_graph

(* strip relationships so link-state & Net can use a two-tier graph *)
let plain_edges g = Graph.map_edges g (fun (e, _) -> e)

let two_tier seed =
  let rng = Rng.create seed in
  Topology.two_tier rng ~transits:3 ~accesses:4 ~hosts_per_access:3
    ~multihoming:2

(* ---------- path-vector forwarding drives real packets ---------- *)

let test_pathvector_forwards_packets () =
  let tt = two_tier 101 in
  let pv = Pathvector.compute tt.Topology.graph in
  let links = Topology.to_links (plain_edges tt.Topology.graph) in
  let net = Net.create links (Pathvector.forwarding pv) in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let hosts = Array.of_list tt.Topology.hosts in
  let n = Array.length hosts in
  let ids, events =
    Completed.with_flight (fun () ->
        let ids =
          List.init n (fun i ->
              let src = hosts.(i) and dst = hosts.((i + 1) mod n) in
              let p =
                Packet.make ~id:(Traffic.fresh_id gen) ~src ~dst ~created:0.0
                  ()
              in
              Net.inject net engine p;
              p.Packet.id)
        in
        Engine.run engine;
        ids)
  in
  Alcotest.(check int) "all host pairs delivered" n (Net.delivered_count net);
  (* and the paths respect provider hierarchy: every delivered packet's
     path stays inside the graph's edges *)
  List.iter
    (fun id ->
      let rec edges_ok = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check bool) "edge exists" true
            (Option.is_some (Graph.find_edge tt.Topology.graph a b));
          edges_ok rest
        | _ -> ()
      in
      edges_ok (Completed.route events id))
    ids

(* ---------- trust graph drives a firewall middlebox ---------- *)

let test_trust_mediated_firewall_in_net () =
  let tg = Trust_graph.create 4 in
  (* node 3 (destination) trusts 0 via 1, distrusts 2 *)
  Trust_graph.set_trust tg ~truster:3 ~trustee:1 0.9;
  Trust_graph.set_trust tg ~truster:1 ~trustee:0 0.9;
  let admits ~src ~dst =
    Trust_graph.trusts tg ~threshold:0.5 dst src
  in
  let links = Topology.to_links (Topology.line 4) in
  let forwarding ~node ~target _ =
    if target > node then Some (node + 1)
    else if target < node then Some (node - 1)
    else None
  in
  let net = Net.create links forwarding in
  Net.add_middlebox net 3 (Middlebox.trust_firewall ~admits);
  let engine = Engine.create () in
  Net.inject net engine (Packet.make ~id:0 ~src:0 ~dst:3 ~created:0.0 ());
  Net.inject net engine (Packet.make ~id:1 ~src:2 ~dst:3 ~created:0.0 ());
  Engine.run engine;
  Alcotest.(check int) "trusted delivered" 1 (Net.delivered_count net);
  Alcotest.(check int) "untrusted filtered" 1 (Net.lost_count net)

(* ---------- source routing with and without payment ---------- *)

let test_source_route_payment_gate () =
  let tt = two_tier 103 in
  let pv = Pathvector.compute tt.Topology.graph in
  let links = Topology.to_links (plain_edges tt.Topology.graph) in
  let hosts = Array.of_list tt.Topology.hosts in
  let src = hosts.(0) and dst = hosts.(Array.length hosts - 1) in
  let via =
    (* steer through a transit that is NOT on the default path *)
    let default_path =
      Option.value ~default:[] (Pathvector.as_path pv ~src ~dst)
    in
    match
      List.filter (fun t -> not (List.mem t default_path)) tt.Topology.transits
    with
    | t :: _ -> t
    | [] -> List.hd tt.Topology.transits
  in
  let run ~paid =
    let net = Net.create links (Pathvector.forwarding pv) in
    List.iter
      (fun t -> Net.add_middlebox net t (Sourceroute.refusal_middlebox ~paid))
      tt.Topology.transits;
    let engine = Engine.create () in
    Completed.with_flight (fun () ->
        Net.inject net engine
          (Packet.make
             ~source_route:(Sourceroute.waypoints_via ~transit:via)
             ~id:0 ~src ~dst ~created:0.0 ());
        Engine.run engine;
        net)
  in
  let unpaid, _ = run ~paid:false in
  Alcotest.(check int) "unpaid refused" 1 (Net.lost_count unpaid);
  let paid, events = run ~paid:true in
  Alcotest.(check int) "paid carried" 1 (Net.delivered_count paid);
  (* the steered packet actually visited the chosen transit, and its
     route ends at the destination *)
  let route = Completed.route events 0 in
  Alcotest.(check bool) "via waypoint" true (List.mem via route);
  Alcotest.(check (option int)) "delivered at dst" (Some dst)
    (List.nth_opt route (List.length route - 1))

(* ---------- link-state vs path-vector agree on reachability ---------- *)

let test_protocols_agree_on_reachability () =
  let tt = two_tier 107 in
  let plain = plain_edges tt.Topology.graph in
  let ls = Linkstate.compute plain ~metric:`Hops in
  let pv = Pathvector.compute tt.Topology.graph in
  let nodes = Graph.node_count plain in
  for src = 0 to nodes - 1 do
    for dst = 0 to nodes - 1 do
      if src <> dst then begin
        let ls_ok = Option.is_some (Linkstate.distance ls ~src ~dst) in
        let pv_ok = Pathvector.reachable pv ~src ~dst in
        (* Gao-Rexford may forbid some physically-present paths, but on a
           two-tier topology every pair is policy-reachable; link-state
           reachability must therefore match *)
        Alcotest.(check bool)
          (Printf.sprintf "pair %d->%d" src dst)
          ls_ok pv_ok
      end
    done
  done

(* ---------- encryption defeats on-path app filtering, end to end ----- *)

let test_encryption_defeats_dpi_end_to_end () =
  let links = Topology.to_links (Topology.line 3) in
  let forwarding ~node ~target _ =
    if target > node then Some (node + 1)
    else if target < node then Some (node - 1)
    else None
  in
  let net = Net.create links forwarding in
  Net.add_middlebox net 1
    (Middlebox.app_filter ~blocked:[ Packet.File_sharing ]);
  let engine = Engine.create () in
  let log = Completed.record net in
  Net.inject net engine
    (Packet.make ~app:Packet.File_sharing ~id:0 ~src:0 ~dst:2 ~created:0.0 ());
  Net.inject net engine
    (Packet.make ~app:Packet.File_sharing ~encrypted:true ~id:1 ~src:0 ~dst:2
       ~created:0.0 ());
  Engine.run engine;
  Alcotest.(check int) "plain blocked, encrypted through" 1
    (Net.delivered_count net);
  match
    List.find_map
      (fun (p, o) ->
        match o with Net.Delivered _ -> Some p.Packet.encrypted | _ -> None)
      (log ())
  with
  | Some enc -> Alcotest.(check bool) "the encrypted one survived" true enc
  | None -> Alcotest.fail "nothing delivered"


(* ---------- internet in a bottle ---------- *)

(* The composition showpiece: a two-tier commercial internet running
   path-vector routing, with a NAT'd household, a trust-mediated
   firewall at an access provider, escrowed per-hop payments, and a
   closed-loop transport — all substrates in one simulation. *)

module Nat = Tussle_netsim.Nat
module Transport = Tussle_netsim.Transport
module Payment = Tussle_econ.Payment

let test_internet_in_a_bottle () =
  let tt = two_tier 401 in
  let pv = Pathvector.compute tt.Topology.graph in
  let plain = plain_edges tt.Topology.graph in
  let links = Topology.to_links plain in
  let net = Net.create links (Pathvector.forwarding pv) in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let hosts = Array.of_list tt.Topology.hosts in
  let alice = hosts.(0) and bob = hosts.(Array.length hosts - 1) in
  (* 1: a NAT'd household behind alice's access: private machines can
     reach out through alice's address *)
  let nat = Nat.create ~public:alice ~privates:[ 9001; 9002 ] in
  let out =
    Nat.translate_out nat
      (Packet.make ~id:777_001 ~src:9001 ~dst:bob ~created:0.0 ())
  in
  Alcotest.(check int) "nat rewrites to alice" alice out.Packet.src;
  (* 2: bob's access provider runs a trust firewall admitting only
     parties bob's web of trust can vouch for *)
  let tg = Trust_graph.create (Tussle_prelude.Graph.node_count plain) in
  Trust_graph.add_mutual tg bob alice 0.95;
  let bob_access = tt.Topology.access_of_host bob in
  Net.add_middlebox net bob_access
    (Tussle_netsim.Middlebox.trust_firewall
       ~admits:(fun ~src ~dst:_ -> Trust_graph.trusts tg ~threshold:0.5 bob src));
  (* 3: alice escrows per-hop carriage payment for the transfer *)
  let ledger =
    Payment.create ~parties:(Tussle_prelude.Graph.node_count plain) ~initial:100.0
  in
  let providers =
    match Pathvector.as_path pv ~src:alice ~dst:bob with
    | Some path -> List.filter (fun h -> h <> bob) path
    | None -> Alcotest.fail "no route alice->bob"
  in
  let escrow =
    match
      Payment.authorize ledger ~payer:alice
        ~hops:(List.map (fun p -> (p, 0.1)) providers)
    with
    | Ok e -> e
    | Error _ -> Alcotest.fail "authorize failed"
  in
  (* 4: a closed-loop transport moves the data *)
  let conn = Transport.start engine net gen ~src:alice ~dst:bob ~total_packets:50 in
  Engine.run ~until:60.0 engine;
  Alcotest.(check bool) "transfer completed" true
    (Transport.status conn = Transport.Completed);
  (* 5: delivery proven -> the escrow is captured to the on-path ISPs *)
  let receipt = Payment.capture ledger escrow in
  Alcotest.(check bool) "value flowed" true (receipt.Payment.total > 0.0);
  List.iter
    (fun p ->
      Alcotest.(check bool) "provider paid" true (Payment.balance ledger p > 100.0))
    providers;
  (* 6: an untrusted stranger's traffic dies at bob's access firewall *)
  let stranger = hosts.(1) in
  let lost0 = Net.lost_count net in
  Net.inject net engine
    (Packet.make ~id:777_100 ~src:stranger ~dst:bob
       ~created:(Engine.now engine) ());
  Engine.run engine;
  Alcotest.(check int) "stranger filtered" 1 (Net.lost_count net - lost0)

let () =
  Alcotest.run "integration"
    [
      ( "cross-module",
        [
          Alcotest.test_case "path-vector forwards packets" `Quick
            test_pathvector_forwards_packets;
          Alcotest.test_case "trust-mediated firewall" `Quick
            test_trust_mediated_firewall_in_net;
          Alcotest.test_case "source-route payment gate" `Quick
            test_source_route_payment_gate;
          Alcotest.test_case "protocols agree on reachability" `Quick
            test_protocols_agree_on_reachability;
          Alcotest.test_case "encryption defeats DPI" `Quick
            test_encryption_defeats_dpi_end_to_end;
          Alcotest.test_case "internet in a bottle" `Quick
            test_internet_in_a_bottle;
        ] );
    ]
