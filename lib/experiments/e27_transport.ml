(* E27 — The congestion tussle again, this time with real packets,
   queues and retransmission timers (§II-B; companion to E14's fluid
   model). *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Table = Tussle_prelude.Table
module Engine = Tussle_netsim.Engine
module Link = Tussle_netsim.Link
module Net = Tussle_netsim.Net
module Traffic = Tussle_netsim.Traffic
module Transport = Tussle_netsim.Transport

(* two senders (0, 1) share the 2 Mb/s bottleneck 2 -> 3 *)
let shared_bottleneck_net () =
  let g = Graph.create 4 in
  let fast () =
    Link.make ~queue_capacity:64 ~latency:0.001 ~bandwidth_bps:1e8 ()
  in
  Graph.add_undirected g 0 2 (fast ());
  Graph.add_undirected g 1 2 (fast ());
  Graph.add_undirected g 2 3
    (Link.make ~queue_capacity:8 ~latency:0.005 ~bandwidth_bps:2e6 ());
  let forwarding ~node ~target _ =
    if node = target then None
    else if node = 2 then Some target
    else if target = 3 || target = 2 then Some 2
    else Some target
  in
  Net.create g forwarding

let horizon = 30.0

let run_pair b_behaviour =
  let net = shared_bottleneck_net () in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let a = Transport.start engine net gen ~src:0 ~dst:3 ~total_packets:100_000 in
  let b =
    Transport.start ~behaviour:b_behaviour engine net gen ~src:1 ~dst:3
      ~total_packets:100_000
  in
  Engine.run ~until:horizon engine;
  ( Transport.goodput a ~now:horizon,
    Transport.goodput b ~now:horizon,
    Transport.losses a,
    Transport.losses b )

let run () =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "flow B's behaviour"; "A goodput (pkt/s)"; "B goodput (pkt/s)";
        "A losses"; "B losses" ]
  in
  let ga_fair, gb_fair, la_fair, lb_fair = run_pair Transport.Compliant in
  Table.add_row t
    [ "compliant (plays by the rules)";
      Printf.sprintf "%.1f" ga_fair; Printf.sprintf "%.1f" gb_fair;
      string_of_int la_fair; string_of_int lb_fair ];
  let ga_war, gb_war, la_war, lb_war = run_pair Transport.Aggressive in
  Table.add_row t
    [ "aggressive (ignores congestion)";
      Printf.sprintf "%.1f" ga_war; Printf.sprintf "%.1f" gb_war;
      string_of_int la_war; string_of_int lb_war ];
  let fair_ratio = Float.max ga_fair gb_fair /. Float.min ga_fair gb_fair in
  let ok =
    (* two compliant flows share within a small factor *)
    ga_fair > 0.0 && gb_fair > 0.0 && fair_ratio < 3.0
    (* the aggressive endpoint takes the link and starves the honest
       one — at real queues and timers, same verdict as the fluid model *)
    && gb_war > 2.0 *. ga_war
    && ga_war < 0.5 *. ga_fair
    && lb_war > lb_fair
  in
  (Table.render t, ok)

let experiment =
  {
    Experiment.id = "E27";
    title = "The congestion tussle at packet level (closed-loop transport)";
    paper_claim =
      "\"TCP congestion control 'works' when and only when the majority \
       of end-systems both participate and follow a common set of \
       rules\" (§II-B) — replayed with real packets, drop-tail queues, \
       ACK clocking and retransmission timers instead of E14's fluid \
       model: two rule-followers share the bottleneck; one endpoint \
       that ignores congestion takes the link.";
    run;
    sweep = None;
  }
