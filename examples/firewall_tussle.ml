(* The trust tussle (paper §V-B): people who want to be left alone vs
   people who want to bother them.

   A population of hosts exchanges traffic over a two-tier network; a
   fraction of hosts are attackers.  Three protection regimes at the
   destination access providers:

     - open network     : transparent carriage, every attack lands
     - port filtering   : blocks the attack port, but also collateral-
                          damages a new application that happens to use
                          unusual ports — and tunneled attacks get through
     - trust-mediated   : admits flows by WHO is talking (derived trust),
                          not what port they use

   Run with: dune exec examples/firewall_tussle.exe *)

module Rng = Tussle_prelude.Rng
module Table = Tussle_prelude.Table
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Middlebox = Tussle_netsim.Middlebox
module Net = Tussle_netsim.Net
module Traffic = Tussle_netsim.Traffic
module Linkstate = Tussle_routing.Linkstate
module Trust_graph = Tussle_trust.Trust_graph

type regime = Open | Port_filter | Trust_mediated

let regime_name = function
  | Open -> "open network"
  | Port_filter -> "port filter"
  | Trust_mediated -> "trust-mediated"

type tally = {
  mutable attacks_landed : int;
  mutable legit_delivered : int;
  mutable legit_total : int;
  mutable attacks_total : int;
}

let run_regime ~seed ~attacker_fraction regime =
  let rng = Rng.create seed in
  let tt =
    Topology.two_tier rng ~transits:2 ~accesses:4 ~hosts_per_access:5
      ~multihoming:1
  in
  let plain = Graph.map_edges tt.Topology.graph (fun (e, _) -> e) in
  let ls = Linkstate.compute plain ~metric:`Hops in
  let links = Topology.to_links plain in
  let net = Net.create links (Linkstate.forwarding ls) in
  let hosts = Array.of_list tt.Topology.hosts in
  let n = Array.length hosts in
  (* who is an attacker *)
  let attacker = Array.map (fun _ -> Rng.bernoulli rng attacker_fraction) hosts in
  (* trust: all good hosts share a web of trust via their access provider;
     attackers have no trust edges *)
  let tg = Trust_graph.create (Graph.node_count plain) in
  Array.iteri
    (fun i h ->
      if not attacker.(i) then begin
        let a = tt.Topology.access_of_host h in
        Trust_graph.add_mutual tg h a 0.95;
        List.iter
          (fun t -> Trust_graph.add_mutual tg a t 0.95)
          (tt.Topology.transit_of_access a)
      end)
    hosts;
  (* peered transits vouch for each other *)
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 -> if t1 < t2 then Trust_graph.add_mutual tg t1 t2 0.95)
        tt.Topology.transits)
    tt.Topology.transits;
  let admits ~src ~dst =
    Trust_graph.trusts ~max_depth:6 tg ~threshold:0.5 dst src
  in
  (* protection at every access provider *)
  List.iter
    (fun a ->
      match regime with
      | Open -> ()
      | Port_filter ->
        Net.add_middlebox net a
          (Middlebox.port_filter ~blocked:[ Packet.default_port Packet.Attack ] ())
      | Trust_mediated ->
        Net.add_middlebox net a (Middlebox.trust_firewall ~admits))
    tt.Topology.accesses;
  (* traffic: legit web + a new app on an odd port + attacks (half of
     which are tunneled to dodge port filters) *)
  let engine = Engine.create () in
  (* the split keeps [rng]'s later draws where they were *)
  ignore (Rng.split rng);
  let gen = Traffic.create () in
  let tally =
    { attacks_landed = 0; legit_delivered = 0; legit_total = 0; attacks_total = 0 }
  in
  let good_hosts =
    Array.of_list
      (List.filteri (fun i _ -> not attacker.(i)) (Array.to_list hosts))
  in
  for i = 0 to n - 1 do
    for _ = 1 to 4 do
      let src = hosts.(i) in
      (* legitimate users exercise choice over whom they talk to
         (paper: "users should be able to choose with whom they
         interact"); attackers spray everyone *)
      let dst =
        if attacker.(i) then hosts.(Rng.int rng n)
        else Rng.choice rng good_hosts
      in
      if dst <> src then
        if attacker.(i) then begin
          tally.attacks_total <- tally.attacks_total + 1;
          let tunneled = Rng.bernoulli rng 0.5 in
          Net.inject net engine
            (Packet.make ~id:(Traffic.fresh_id gen) ~app:Packet.Attack
               ~tunneled ~src ~dst ~created:(Engine.now engine) ())
        end
        else begin
          tally.legit_total <- tally.legit_total + 1;
          let app = if Rng.bernoulli rng 0.3 then Packet.Game else Packet.Web in
          (* the unproven new application lives on the attack port's
             neighbourhood: unlucky, and exactly the collateral-damage
             case the paper worries about *)
          let port =
            if app = Packet.Game then Packet.default_port Packet.Attack + 0
            else Packet.default_port app
          in
          Net.inject net engine
            (Packet.make ~id:(Traffic.fresh_id gen) ~app ~port ~src ~dst
               ~created:(Engine.now engine) ())
        end
    done
  done;
  Net.on_complete net (fun p outcome ->
      match outcome with
      | Net.Delivered _ ->
        if p.Packet.app = Packet.Attack then
          tally.attacks_landed <- tally.attacks_landed + 1
        else tally.legit_delivered <- tally.legit_delivered + 1
      | Net.Lost _ -> ());
  Engine.run engine;
  tally

let () =
  Printf.printf "=== Firewall tussle: protection vs transparency ===\n\n";
  let attacker_fraction = 0.2 in
  Printf.printf "population: 20 hosts, %.0f%% attackers; half of attacks tunneled\n\n"
    (100.0 *. attacker_fraction);
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "regime"; "attacks landed"; "legit traffic delivered" ]
  in
  List.iter
    (fun regime ->
      let tally = run_regime ~seed:77 ~attacker_fraction regime in
      Table.add_row t
        [
          regime_name regime;
          Printf.sprintf "%d/%d" tally.attacks_landed tally.attacks_total;
          Printf.sprintf "%d/%d" tally.legit_delivered tally.legit_total;
        ])
    [ Open; Port_filter; Trust_mediated ];
  Table.print t;
  Printf.printf
    "\n-> the open network delivers everything, attacks included.  The\n\
    \   port filter stops only unmasked attacks and collateral-damages\n\
    \   the new application squatting on the filtered port.  The trust-\n\
    \   mediated firewall blocks by WHO is talking: tunneling does not\n\
    \   help attackers, and the new app is untouched (\"constraints based\n\
    \   on who is communicating, not what protocols are being run\").\n"
