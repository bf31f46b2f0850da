(* The reproduction harness.

   Part 1 regenerates every experiment in DESIGN.md's index (E1-E30):
   the paper has no numbered tables or figures, so each experiment
   operationalizes one qualitative claim from the text, prints the
   table, and checks the claim's shape.

   Part 2 runs bechamel microbenchmarks (B1-B13) over the substrate hot
   paths: the event loop, Dijkstra, path-vector convergence, the Nash
   solver, policy evaluation, trust-graph queries, and the
   million-consumer market best-response loop.

   Run with: dune exec bench/main.exe
   Options:  --experiments-only | --bench-only | --experiment <id>
             --domains <n> | --seq   (parallel experiment runner)
             --metrics               (print the telemetry table)
             --trace <file>          (write Chrome trace-event JSON)
             --report <file>         (write the battery report JSON)
             --fault-seed <n>        (seed for fault-injecting experiments)
             --timeout-s <s>         (per-experiment watchdog; default off)
   Flag values go through the same parsers as the tussle CLI's: garbage
   prints "main: FLAG: MSG" and exits 2.  Statistical sweeps and the
   fault-plan search are `tussle sweep` and `tussle search`. *)

module Rng = Tussle_prelude.Rng
module Pool = Tussle_prelude.Pool
module Registry = Tussle_experiments.Registry
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

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks *)

let bench_engine () =
  (* B1: schedule + run 10k chained events *)
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick engine =
    incr count;
    if !count < 10_000 then ignore (Engine.schedule_after engine 0.001 tick)
  in
  count := 0;
  ignore (Engine.schedule e 0.0 tick);
  Engine.run e

let dijkstra_graph =
  lazy
    (let rng = Rng.create 9001 in
     Topology.barabasi_albert rng 500 3)

let bench_dijkstra () =
  let g = Lazy.force dijkstra_graph in
  ignore (Graph.dijkstra g ~weight:(fun e -> e.Topology.latency) ~source:0)

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
  let gen = Tussle_netsim.Traffic.create (Rng.create 9005) in
  let c =
    Tussle_netsim.Transport.start engine net gen ~src:0 ~dst:1
      ~total_packets:200
  in
  Engine.run ~until:120.0 engine;
  assert (Tussle_netsim.Transport.completed c)

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
     stop short of (E1/E3 run at 10^5); bench-only so the battery's
     wall budget is unaffected.  Few periods: the point is the
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

let microbenchmarks () =
  let open Bechamel in
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"tussle" ~fmt:"%s %s"
      [
        test "B1 event-loop (10k events)" bench_engine;
        test "B2 dijkstra (BA-500)" bench_dijkstra;
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
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let estimate =
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Printf.sprintf "%15.1f" est
          | Some [] | None -> Printf.sprintf "%15s" "n/a"
        in
        (name, estimate) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "## Microbenchmarks (bechamel, monotonic clock)\n\n";
  Printf.printf "%-50s %15s\n" "benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter (fun (name, est) -> Printf.printf "%-50s %s\n" name est) rows

(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let () =
  Printexc.record_backtrace true;
  let args = Array.to_list Sys.argv in
  let flag_value name =
    let prefix = name ^ "=" in
    let plen = String.length prefix in
    let rec find = function
      | flag :: v :: _ when flag = name -> Some v
      | flag :: _
        when String.length flag >= plen && String.sub flag 0 plen = prefix ->
        Some (String.sub flag plen (String.length flag - plen))
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let domains, timeout_s, fault_seed =
    match
      let* domains =
        Pool.domains_flag ~seq:(List.mem "--seq" args) (flag_value "--domains")
      in
      let* timeout_s =
        Pool.flag "--timeout-s" Pool.seconds_of_string (flag_value "--timeout-s")
      in
      let* fault_seed =
        Pool.flag "--fault-seed" (Pool.seed_of_string ~what:"fault seed")
          (flag_value "--fault-seed")
      in
      Ok (domains, timeout_s, fault_seed)
    with
    | Ok flags -> flags
    | Error msg ->
      prerr_endline ("main: " ^ msg);
      exit 2
  in
  Option.iter Tussle_fault.Seed.set fault_seed;
  let emit_report, finish =
    Registry.telemetry ~cmd:"main" ?domains
      ~metrics:(List.mem "--metrics" args) ~trace:(flag_value "--trace")
      ~report:(flag_value "--report") ()
  in
  match flag_value "--experiment" with
  | Some id -> begin
    match Registry.run_one ?timeout_s id with
    | Ok o ->
      emit_report ~wall_s:o.Tussle_experiments.Experiment.wall_s [ o ];
      exit (finish (if Tussle_experiments.Experiment.held o then 0 else 1))
    | Error msg ->
      prerr_endline msg;
      exit 2
  end
  | None ->
    let ok =
      if List.mem "--bench-only" args then true
      else begin
        Printf.printf
          "# Tussle in Cyberspace: reproduction harness\n\n\
           The paper is a position paper with no tables or figures; each\n\
           experiment below regenerates one of its qualitative claims\n\
           (see DESIGN.md section 3 for the index).\n\n";
        let ok, outcomes, wall_s = Registry.run_battery ?domains ?timeout_s () in
        emit_report ~wall_s outcomes;
        ok
      end
    in
    if not (List.mem "--experiments-only" args) then begin
      print_newline ();
      microbenchmarks ()
    end;
    exit (finish (if ok then 0 else 1))
