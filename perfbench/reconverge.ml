(* reconverge: one op is a hello-only self-healing control plane on a
   1000-node preferential-attachment graph, riding out three link
   failures while 200 packets cross it.  All-pairs SPF at this size is
   nearly all of the op. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Linkstate = Tussle_routing.Linkstate
module Selfheal = Tussle_routing.Selfheal
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Invariant = Tussle_chaos.Invariant

let nodes = 1000
let attach_links = 2
let packets = 200
let until = 3.0

type input = {
  graph : Topology.edge Graph.t;
  plan : Plan.t;
  sends : (float * int * int) array;  (* time, src, dst *)
  fault_seed : int;
}

(* Two links fail together (one coalesced recompute down, one up) and a
   third fails later on its own: four reconvergences per op. *)
let windows = [ Plan.window 0.5 1.5; Plan.window 0.5 1.5; Plan.window 2.0 2.5 ]

let input ~seed =
  let rng = Rng.create seed in
  let graph = Topology.barabasi_albert rng nodes attach_links in
  let edges =
    Graph.fold_edges graph ~init:[] ~f:(fun acc u v _ ->
        if u < v then (u, v) :: acc else acc)
    |> List.rev |> Array.of_list
  in
  let rec pick chosen =
    if List.length chosen = List.length windows then List.rev chosen
    else
      let e = edges.(Rng.int rng (Array.length edges)) in
      pick (if List.mem e chosen then chosen else e :: chosen)
  in
  let failed = Array.of_list (pick []) in
  let plan =
    List.map2 (fun (u, v) w -> Plan.Link_down { u; v; w }) (Array.to_list failed) windows
  in
  (* Packets leave at seeded times in [0.1, 2.9); every fourth crosses
     one of the failing links, so some are lost between a failure and
     its detection. *)
  let sends =
    Array.init packets (fun k ->
        let src, dst =
          if k mod 4 = 0 then failed.(Rng.int rng (Array.length failed))
          else
            let src = Rng.int rng nodes in
            (src, (src + 1 + Rng.int rng (nodes - 1)) mod nodes)
        in
        (0.1 +. Rng.float rng 2.8, src, dst))
  in
  { graph; plan; sends; fault_seed = Rng.int rng 1_000_000 }

let run (p : Workload.probe) x =
  let links = Topology.to_links x.graph in
  let net = Net.create links (fun ~node:_ ~target:_ _ -> None) in
  let engine = Engine.create () in
  let clock_start = Engine.now engine in
  let heal = p.step "routing.selfheal_attach" (fun () -> Selfheal.attach ~until engine net) in
  Inject.install ~seed:x.fault_seed ~plan:x.plan engine net;
  Array.iteri
    (fun id (at, src, dst) ->
      ignore
        (Engine.schedule engine at (fun engine ->
             Net.inject net engine
               (Packet.make ~id ~src ~dst ~created:(Engine.now engine) ()))))
    x.sends;
  p.step "netsim.engine_run" (fun () -> Engine.run ~until:60.0 engine);
  let obs =
    Invariant.observe ~reconvergences:(Selfheal.reconvergences heal)
      ~fault_transitions:(Plan.transitions x.plan) ~clock_start engine net
  in
  p.count "reconvergences" (float_of_int obs.reconvergences);
  p.count "events" (float_of_int (Engine.events_executed engine));
  p.count "injected" (float_of_int obs.injected);
  p.count "delivered" (float_of_int obs.delivered);
  match Invariant.check obs with
  | [] -> Ok ()
  | v :: _ -> Error (Invariant.violation_string v)

let setup ~seed ~plant:_ =
  let x = input ~seed in
  let op _ = run Workload.untraced x in
  ignore (op 0);
  let traced_op sp ~op _ = run (Workload.traced sp ~op) x in
  let per_layer sp ~ops =
    let c name = Workload.per (Spans.count_total sp name) ops in
    let run_ms = Workload.ms (Spans.mean sp "netsim.engine_run") in
    let reconv = c "reconvergences" in
    (* Probes outside the timed ops, on the op's own graph: three full
       SPFs, and one single-source Dijkstra from every 100th node. *)
    let links = Topology.to_links x.graph in
    let probe = Spans.create () in
    for _ = 1 to 3 do
      Spans.span probe ~op:0 "routing.linkstate_compute_live" (fun () ->
          ignore (Linkstate.compute_live links ~metric:`Latency))
    done;
    for source = 0 to (nodes / 100) - 1 do
      Spans.span probe ~op:0 "prelude.graph.dijkstra" (fun () ->
          ignore
            (Graph.dijkstra links
               ~weight:(fun l -> Tussle_netsim.Link.latency l)
               ~source:(100 * source)))
    done;
    [
      ("routing.selfheal_attach.ms", Workload.ms (Spans.mean sp "routing.selfheal_attach"));
      ("netsim.engine_run.ms", run_ms);
      ("routing.selfheal.reconvergences_per_op", reconv);
      ("netsim.engine.events_per_op", c "events");
      ( "netsim.net.delivered_frac",
        Spans.count_total sp "delivered" /. Float.max 1. (Spans.count_total sp "injected") );
      ("routing.ms_per_reconvergence", if reconv > 0. then run_ms /. reconv else 0.);
      ( "routing.linkstate_compute_live.ms",
        Workload.ms (Spans.mean probe "routing.linkstate_compute_live") );
      ("prelude.graph.dijkstra.us", Workload.us (Spans.mean probe "prelude.graph.dijkstra"));
    ]
  in
  { Workload.cycle = 1; op; traced_op; per_layer }

let workload = { Workload.name = "reconverge"; reference = Memory; setup }
