(* The microbenchmark harness: bechamel runs (B1-B17) over the
   substrate hot paths: the event loop, Dijkstra, path-vector
   convergence, the Nash solver, policy evaluation, trust-graph
   queries, the million-consumer market best-response loop, raw Rng
   draws, the traceback marking kernel and the chaos ledger read.
   Several benchmarks assert their result, so a run also smoke-tests
   those kernels.

   Run with: dune exec bench/main.exe   (no flags; prints the table)
   The experiment battery is `tussle experiments`. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Topology = Tussle_netsim.Topology
module Linkstate = Tussle_routing.Linkstate
module Pathvector = Tussle_routing.Pathvector
module Normal_form = Tussle_gametheory.Normal_form
module Nash = Tussle_gametheory.Nash
module Zerosum = Tussle_gametheory.Zerosum
module Parser = Tussle_policy.Parser
module Eval = Tussle_policy.Eval
module Trust_graph = Tussle_trust.Trust_graph

let bench_engine () =
  (* B1: schedule + run 10k chained events *)
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick engine =
    incr count;
    if !count < 10_000 then Engine.schedule_after engine 0.001 tick
  in
  count := 0;
  Engine.schedule e 0.0 tick;
  Engine.run e

let dijkstra_graph =
  lazy
    (let rng = Rng.create 9001 in
     Topology.barabasi_albert rng 500 3)

let bench_dijkstra () =
  let g = Lazy.force dijkstra_graph in
  ignore (Graph.dijkstra g ~weight:(fun e -> e.Topology.latency) ~source:0)

let dijkstra_graph_10k =
  lazy
    (let rng = Rng.create 9009 in
     Topology.barabasi_albert rng 10_000 2)

let bench_dijkstra_10k () =
  let g = Lazy.force dijkstra_graph_10k in
  ignore (Graph.dijkstra g ~weight:(fun e -> e.Topology.latency) ~source:0)

let mixed_weights_10k =
  lazy
    (let g = Lazy.force dijkstra_graph_10k in
     let rng = Rng.create 9018 in
     (g, Graph.weights g (fun _ _ _ -> Rng.float rng 10.0)))

let bench_dijkstra_mixed () =
  (* B2c: B2b's graph with seeded non-uniform costs, so pushes land on
     the heap half of the frontier as well as the run *)
  let g, w = Lazy.force mixed_weights_10k in
  ignore (Graph.dijkstra_weights g w ~source:0)

let linkstate_links =
  lazy
    (let rng = Rng.create 9010 in
     Topology.to_links (Topology.barabasi_albert rng 1000 2))

let bench_linkstate () =
  (* B14: what a reconvergence costs the control plane before any
     traffic moves: snapshot the live link costs, then the first
     forwarding decision, which runs that router's search until node
     999 is settled *)
  let t = Linkstate.compute_live (Lazy.force linkstate_links) ~metric:`Latency in
  ignore (Linkstate.next_hop t ~node:0 ~dst:999)

let routed_pairs =
  lazy
    (let rng = Rng.create 9019 in
     Array.init 200 (fun _ ->
         let src = Rng.int rng 1000 in
         (src, Rng.int rng 1000)))

let bench_linkstate_routes () =
  (* B14b: a reconvergence's query mix: a fresh table, then 200 seeded
     (src, dst) pairs routed hop by hop, each hop a [next_hop] that
     runs or re-runs that router's search as far as [dst] *)
  let t = Linkstate.compute_live (Lazy.force linkstate_links) ~metric:`Latency in
  Array.iter
    (fun (src, dst) ->
      let rec walk node =
        match Linkstate.next_hop t ~node ~dst with
        | Some hop -> walk hop
        | None -> assert (node = dst)
      in
      walk src)
    (Lazy.force routed_pairs)

let pv_topology =
  lazy
    (let rng = Rng.create 9002 in
     (Topology.two_tier rng ~transits:4 ~accesses:12 ~hosts_per_access:2
        ~multihoming:2)
       .Topology.graph)

let bench_pathvector () = ignore (Pathvector.compute (Lazy.force pv_topology))

let bench_nash () =
  ignore (Nash.support_enumeration Normal_form.battle_of_sexes);
  ignore (Nash.support_enumeration Normal_form.chicken)

let bench_zerosum () =
  ignore
    (Zerosum.solve ~iterations:1000
       (Normal_form.row_matrix Normal_form.matching_pennies))

let policy_fixture =
  lazy
    (let p =
       Parser.parse
         "root says allow isp connect on backbone delegable. \
          isp says allow reseller connect on backbone delegable. \
          reseller says allow customer connect on backbone where port == 25. \
          root says deny eve * on *."
     in
     let req =
       { Eval.subject = "customer"; action = "connect"; resource = "backbone";
         attributes = [ ("port", Tussle_policy.Ast.Int 25) ] }
     in
     (p, req))

let bench_policy () =
  let p, req = Lazy.force policy_fixture in
  ignore (Eval.decide ~root:"root" p req)

let trust_fixture =
  lazy
    (let rng = Rng.create 9003 in
     let g = Trust_graph.create 200 in
     for _ = 1 to 1000 do
       let a = Rng.int rng 200 and b = Rng.int rng 200 in
       if a <> b then
         Trust_graph.set_trust g ~truster:a ~trustee:b (Rng.float rng 1.0)
     done;
     g)

let bench_trust () =
  let g = Lazy.force trust_fixture in
  ignore (Trust_graph.derived_trust g ~truster:0 ~trustee:199)

let bench_congestion () =
  let kinds = Array.make 10 Tussle_netsim.Congestion.Compliant in
  kinds.(0) <- Tussle_netsim.Congestion.Aggressive;
  let cfg = Tussle_netsim.Congestion.default_config ~kinds in
  ignore (Tussle_netsim.Congestion.run cfg Tussle_netsim.Congestion.Fair_queueing)

let multicast_fixture =
  lazy
    (let rng = Rng.create 9004 in
     let g = Topology.barabasi_albert rng 200 2 in
     let receivers = List.init 80 (fun i -> i + 1) in
     (g, receivers))

let bench_multicast () =
  let g, receivers = Lazy.force multicast_fixture in
  ignore (Tussle_routing.Multicast.shortest_path_tree g ~source:0 ~receivers)

let bench_payment () =
  let l = Tussle_econ.Payment.create ~parties:16 ~initial:1000.0 in
  for i = 0 to 199 do
    ignore
      (Tussle_econ.Payment.pay_path l ~payer:(i mod 16)
         ~hops:[ (((i + 1) mod 16), 0.5); (((i + 2) mod 16), 0.5) ])
  done;
  ignore (Tussle_econ.Payment.settle_bilateral l)

let bench_transport () =
  let g = Graph.create 2 in
  Graph.add_undirected g 0 1
    (Tussle_netsim.Link.make ~queue_capacity:16 ~latency:0.005
       ~bandwidth_bps:2e6 ());
  let net =
    Tussle_netsim.Net.create g (fun ~node ~target _ ->
        if target <> node then Some target else None)
  in
  let engine = Engine.create () in
  let gen = Tussle_netsim.Traffic.create () in
  let c =
    Tussle_netsim.Transport.start engine net gen ~src:0 ~dst:1
      ~total_packets:200
  in
  Engine.run ~until:120.0 engine;
  assert (Tussle_netsim.Transport.(status c = Completed))

let bench_selfheal () =
  (* one full outage lifecycle on a 12-ring: hello sampling, down
     detection, SPF + table swap, restoration, second swap *)
  let links = Topology.to_links (Topology.ring 12) in
  let net = Tussle_netsim.Net.create links (fun ~node:_ ~target:_ _ -> None) in
  let engine = Engine.create () in
  let heal = Tussle_routing.Selfheal.attach ~until:1.0 engine net in
  Tussle_fault.Inject.install ~seed:9006
    ~plan:
      [ Tussle_fault.Plan.Link_down
          { u = 0; v = 1; w = Tussle_fault.Plan.window 0.13 0.61 } ]
    engine net;
  Engine.run engine;
  assert (Tussle_routing.Selfheal.reconvergences heal = 2)

let bench_chaos_run () =
  (* one chaos sweep run end to end: derive the plan, simulate the
     scenario, check every invariant *)
  let r = Tussle_chaos.Sweep.run_one ~master_seed:9007 0 in
  assert (r.Tussle_chaos.Sweep.violations = [])

let bench_market_1m () =
  (* B13: the million-consumer price-competition run the experiments
     stop short of (E1/E3 run at 10^5); run only here so the
     battery's wall budget is unaffected.  Few periods: the point is the
     per-period O(n*m) inner loop, not convergence. *)
  let cfg =
    {
      Tussle_econ.Market.default_config with
      Tussle_econ.Market.n_consumers = 1_000_000;
      Tussle_econ.Market.n_providers = 4;
      Tussle_econ.Market.periods = 5;
    }
  in
  let r = Tussle_econ.Market.run (Rng.create 9008) cfg in
  assert (r.Tussle_econ.Market.subscribed_ratio > 0.0)

let bench_rng_draws () =
  (* B15: the draw mix of the link and fault layers (a loss
     bernoulli, a plan's int); with the state unboxed neither draw
     allocates *)
  let rng = Rng.create 9015 in
  let acc = ref 0 in
  for _ = 1 to 1_000_000 do
    if Rng.bernoulli rng 0.2 then incr acc;
    acc := !acc + Rng.int rng 1000
  done;
  assert (!acc > 0)

let bench_traceback () =
  (* B16: E17's marking kernel at one of its packet counts; every
     packet takes one bits draw, compared with one threshold per hop *)
  let obs =
    Tussle_trust.Traceback.simulate (Rng.create 9016)
      ~path:[ 101; 102; 103; 104; 105; 106; 107; 108 ]
      ~p:0.2 ~packets:10_000
  in
  assert (List.length obs = 8)

let observe_fixture =
  lazy
    (let links =
       Topology.to_links (Topology.barabasi_albert (Rng.create 9017) 1000 2)
     in
     ( Engine.create (),
       Tussle_netsim.Net.create links (fun ~node:_ ~target:_ _ -> None) ))

let bench_observe () =
  (* B17: the ledger every chaos run reads once at its end: the net's
     tallies and one pass over the distinct links of a BA(1000, 2)
     net, about 4,000 edges *)
  let engine, net = Lazy.force observe_fixture in
  let obs = Tussle_chaos.Invariant.observe ~clock_start:0.0 engine net in
  assert (obs.Tussle_chaos.Invariant.link_fault_drops = 0)

let microbenchmarks () =
  let open Bechamel in
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"tussle" ~fmt:"%s %s"
      [
        test "B1 event-loop (10k events)" bench_engine;
        test "B2 dijkstra (BA-500)" bench_dijkstra;
        test "B2b dijkstra (BA-10^4)" bench_dijkstra_10k;
        test "B2c dijkstra, mixed weights (BA-10^4)" bench_dijkstra_mixed;
        test "B3 path-vector convergence (64 AS)" bench_pathvector;
        test "B4 nash support enumeration" bench_nash;
        test "B5 zero-sum fictitious play (1k iters)" bench_zerosum;
        test "B6a policy eval (delegation chain)" bench_policy;
        test "B6b trust-graph derived trust" bench_trust;
        test "B7 AIMD fluid model (10 flows, 400 rounds)" bench_congestion;
        test "B8 multicast tree (BA-200, 80 receivers)" bench_multicast;
        test "B9 payment ledger (200 payments + settle)" bench_payment;
        test "B10 closed-loop transport (200 pkts)" bench_transport;
        test "B11 self-heal reconvergence (12-ring outage)" bench_selfheal;
        test "B12 chaos run (plan + sim + invariants)" bench_chaos_run;
        test "B13 market best-response (10^6 consumers)" bench_market_1m;
        test "B14 link-state table + first next hop (BA-1000)" bench_linkstate;
        test "B14b link-state, 200 routed pairs (BA-1000)" bench_linkstate_routes;
        test "B15 Rng draws (10^6 bernoulli + int)" bench_rng_draws;
        test "B16 traceback simulate (8 hops, 10^4 packets)" bench_traceback;
        test "B17 chaos ledger observe (BA-1000)" bench_observe;
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let estimate name =
    match Analyze.OLS.estimates (Hashtbl.find results name) with
    | Some (est :: _) -> Printf.sprintf "%15.1f" est
    | Some [] | None -> Printf.sprintf "%15s" "n/a"
  in
  Printf.printf "## Microbenchmarks (bechamel, monotonic clock)\n\n";
  Printf.printf "%-50s %15s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 66 '-');
  (* declaration order, which is B-number order *)
  List.iter
    (fun name -> Printf.printf "%-50s %s\n" name (estimate name))
    (Test.names tests)

let () = microbenchmarks ()
