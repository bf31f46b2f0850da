(* E4 — Competitive wide-area access via source routing (§V-A4).

   Two transit providers: one honors QoS, the other strips it.  Under
   provider-controlled routing the user cannot steer toward the honest
   one; with loose source routes but no payment the transits refuse the
   traffic; with payment, choice works and the QoS-honoring transit wins
   the traffic. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Table = Tussle_prelude.Table
module Engine = Tussle_netsim.Engine
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Middlebox = Tussle_netsim.Middlebox
module Net = Tussle_netsim.Net
module Traffic = Tussle_netsim.Traffic
module Pathvector = Tussle_routing.Pathvector
module Sourceroute = Tussle_routing.Sourceroute

type regime = Provider_routing | User_routing_unpaid | User_routing_paid

let regime_name = function
  | Provider_routing -> "provider-controlled routing"
  | User_routing_unpaid -> "user source routes, no payment"
  | User_routing_paid -> "user source routes + payment"

(* Path-vector tie-breaking prefers the lowest-id transit, so transit 0
   is the providers' default choice; the QoS-honoring one is transit 1 —
   reachable only if the user can steer. *)
let honest_transit = 1

let run_regime tt pv regime =
  let plain = Graph.map_edges tt.Topology.graph (fun (e, _) -> e) in
  let links = Topology.to_links plain in
  let net = Net.create links (Pathvector.forwarding pv) in
  let paid = regime = User_routing_paid in
  List.iter
    (fun tr ->
      Net.add_middlebox net tr (Sourceroute.refusal_middlebox ~paid);
      if tr <> honest_transit then
        Net.add_middlebox net tr
          (Middlebox.qos_stripper ~honor:(fun _ -> false)))
    tt.Topology.transits;
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let hosts = Array.of_list tt.Topology.hosts in
  let n = Array.length hosts in
  let sent = ref 0 in
  for i = 0 to n - 1 do
    let src = hosts.(i) and dst = hosts.((i + (n / 2)) mod n) in
    if src <> dst then begin
      incr sent;
      let source_route =
        match regime with
        | Provider_routing -> []
        | User_routing_unpaid | User_routing_paid ->
          Sourceroute.waypoints_via ~transit:honest_transit
      in
      Net.inject net engine
        (Packet.make ~id:(Traffic.fresh_id gen) ~qos:Packet.Premium
           ~source_route ~src ~dst ~created:0.0 ())
    end
  done;
  let delivered = ref 0 and intact = ref 0 in
  Net.on_complete net (fun _ o ->
      match o with
      | Net.Delivered { degraded; _ } ->
        incr delivered;
        if not degraded then incr intact
      | Net.Lost _ -> ());
  Engine.run engine;
  let f x = float_of_int x /. float_of_int !sent in
  (f !delivered, f !intact)

let run () =
  let rng = Rng.create 1004 in
  let tt =
    Topology.two_tier rng ~transits:2 ~accesses:4 ~hosts_per_access:3
      ~multihoming:2
  in
  let pv = Pathvector.compute tt.Topology.graph in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "regime"; "delivered"; "premium honored" ]
  in
  let results =
    List.map
      (fun regime ->
        let delivered, intact = run_regime tt pv regime in
        Table.add_row t
          [ regime_name regime; Table.fmt_pct delivered; Table.fmt_pct intact ];
        (regime, delivered, intact))
      [ Provider_routing; User_routing_unpaid; User_routing_paid ]
  in
  let get r = List.find (fun (x, _, _) -> x = r) results in
  let _, d_prov, i_prov = get Provider_routing in
  let _, d_unpaid, _ = get User_routing_unpaid in
  let _, d_paid, i_paid = get User_routing_paid in
  let ok =
    d_prov > 0.99 (* provider routing delivers... *)
    && i_prov < 0.9 (* ...but some traffic rides the QoS-stripping transit *)
    && d_unpaid < 0.5 (* unpaid source routes are refused *)
    && d_paid > 0.99
    && i_paid > 0.99 (* paid choice: delivered AND honored *)
  in
  (Table.render t, ok)

let experiment =
  {
    Experiment.id = "E4";
    title = "Competitive wide-area access (source routing + payment)";
    paper_claim =
      "\"The Internet should support a mechanism for choice such as \
       source routing ... service providers do not like loose source \
       routes, because ISPs do not receive any benefit when they carry \
       traffic directed by a source route ... The design for \
       provider-level source routing must incorporate a recognition of \
       the need for payment.\"";
    run;
    sweep = None;
  }
