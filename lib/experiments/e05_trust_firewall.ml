(* E5 — Trust: firewalls, protection, and collateral damage (§V-B).

   Sweep the attacker fraction under three protection regimes and
   measure both sides of the trade: attacks landed and legitimate
   traffic collateral-damaged. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Table = Tussle_prelude.Table
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
  | Open -> "open"
  | Port_filter -> "port-filter"
  | Trust_mediated -> "trust-mediated"

type outcome = { attack_rate : float; collateral : float }
(* attack_rate: attacks landed / attacks sent;
   collateral: legit traffic lost / legit sent *)

let run_cell ~seed ~attacker_fraction regime =
  let rng = Rng.create seed in
  let tt =
    Topology.two_tier rng ~transits:2 ~accesses:4 ~hosts_per_access:5
      ~multihoming:1
  in
  let plain = Graph.map_edges tt.Topology.graph (fun (e, _) -> e) in
  let ls = Linkstate.compute plain ~metric:`Hops in
  let net = Net.create (Topology.to_links plain) (Linkstate.forwarding ls) in
  let hosts = Array.of_list tt.Topology.hosts in
  let n = Array.length hosts in
  let attacker = Array.map (fun _ -> Rng.bernoulli rng attacker_fraction) hosts in
  (* web of trust among good parties, anchored in the provider graph *)
  let tg = Trust_graph.create (Graph.node_count plain) in
  Array.iteri
    (fun i h ->
      if not attacker.(i) then begin
        let a = tt.Topology.access_of_host h in
        Trust_graph.add_mutual tg h a 0.95;
        List.iter
          (fun tr -> Trust_graph.add_mutual tg a tr 0.95)
          (tt.Topology.transit_of_access a)
      end)
    hosts;
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 -> if t1 < t2 then Trust_graph.add_mutual tg t1 t2 0.95)
        tt.Topology.transits)
    tt.Topology.transits;
  let admits ~src ~dst = Trust_graph.trusts ~max_depth:6 tg ~threshold:0.5 dst src in
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
  let engine = Engine.create () in
  (* the split keeps [rng]'s later draws where they were *)
  ignore (Rng.split rng);
  let gen = Traffic.create () in
  let good_hosts =
    Array.of_list (List.filteri (fun i _ -> not attacker.(i)) (Array.to_list hosts))
  in
  let attacks_sent = ref 0 and legit_sent = ref 0 in
  if Array.length good_hosts >= 2 then
    for i = 0 to n - 1 do
      for _ = 1 to 5 do
        let src = hosts.(i) in
        if attacker.(i) then begin
          let dst = hosts.(Rng.int rng n) in
          if dst <> src then begin
            incr attacks_sent;
            let tunneled = Rng.bernoulli rng 0.5 in
            Net.inject net engine
              (Packet.make ~id:(Traffic.fresh_id gen) ~app:Packet.Attack
                 ~tunneled ~src ~dst ~created:(Engine.now engine) ())
          end
        end
        else begin
          let dst = Rng.choice rng good_hosts in
          if dst <> src then begin
            incr legit_sent;
            (* 30% is a new application on an uncommon port that happens to
               collide with the blocked one: the innovation canary *)
            let app = if Rng.bernoulli rng 0.3 then Packet.Game else Packet.Web in
            let port =
              if app = Packet.Game then Packet.default_port Packet.Attack
              else Packet.default_port app
            in
            Net.inject net engine
              (Packet.make ~id:(Traffic.fresh_id gen) ~app ~port ~src ~dst
                 ~created:(Engine.now engine) ())
          end
        end
      done
    done;
  let attacks_landed = ref 0 and legit_ok = ref 0 in
  Net.on_complete net (fun p o ->
      match o with
      | Net.Delivered _ ->
        if p.Packet.app = Packet.Attack then incr attacks_landed
        else incr legit_ok
      | Net.Lost _ -> ());
  Engine.run engine;
  let safe a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    attack_rate = safe !attacks_landed !attacks_sent;
    collateral = 1.0 -. safe !legit_ok !legit_sent;
  }

let run () =
  let fractions = [ 0.1; 0.2; 0.4 ] in
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right ]
      [ "attacker share"; "regime"; "attacks landing"; "legit collateral" ]
  in
  let cells = ref [] in
  List.iter
    (fun frac ->
      List.iter
        (fun regime ->
          let o = run_cell ~seed:1005 ~attacker_fraction:frac regime in
          cells := ((frac, regime), o) :: !cells;
          Table.add_row t
            [
              Table.fmt_pct frac;
              regime_name regime;
              Table.fmt_pct o.attack_rate;
              Table.fmt_pct o.collateral;
            ])
        [ Open; Port_filter; Trust_mediated ])
    fractions;
  let get frac regime = List.assoc (frac, regime) !cells in
  let ok =
    List.for_all
      (fun frac ->
        let op = get frac Open
        and pf = get frac Port_filter
        and tm = get frac Trust_mediated in
        (* open: everything lands, nothing collateral *)
        op.attack_rate > 0.99 && op.collateral < 0.01
        (* port filter: blocks some attacks but tunneled ones land, and
           the new application is collateral damage *)
        && pf.attack_rate < op.attack_rate
        && pf.attack_rate > 0.2
        && pf.collateral > 0.1
        (* trust-mediated: blocks attacks with no legit collateral *)
        && tm.attack_rate < 0.01
        && tm.collateral < 0.01)
      fractions
  in
  (Table.render t, ok)

let experiment =
  {
    Experiment.id = "E5";
    title = "Trust-mediated transparency vs port filtering";
    paper_claim =
      "\"Firewalls that provide trust-mediated transparency must be \
       designed so that they apply constraints based on who is \
       communicating, as well as (or instead of) what protocols are \
       being run\" — identity-based admission blocks attacks without the \
       collateral damage that port blocking inflicts on new \
       applications, and tunneling does not defeat it.";
    run;
    sweep = None;
  }
