module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Traffic = Tussle_netsim.Traffic
module Transport = Tussle_netsim.Transport
module Linkstate = Tussle_routing.Linkstate
module Selfheal = Tussle_routing.Selfheal
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject

type t = {
  name : string;
  links : (int * int) list;
  horizon : float;
  run : seed:int -> plan:Plan.t -> Invariant.obs;
}

(* Every scenario is a hang guard away from an infinite loop, so each
   drives its engine to a far horizon instead of to quiescence: a
   buggy event source then shows up as an "engine-drained" violation
   rather than a wedged sweep. *)
let guard_horizon = 600.0

let transfer_status conn =
  match Transport.status conn with
  | Transport.Completed -> Invariant.Completed
  | Transport.Abandoned -> Invariant.Abandoned
  | Transport.Active -> Invariant.Active

(* A closed-loop transfer over a slow 4-node line: retransmission,
   backoff and the give-up budget under arbitrary link faults. *)
let line_transfer =
  let edge = { Topology.latency = 0.005; bandwidth_bps = 2e6 } in
  let run ~seed ~plan =
    let net =
      Net.create (Topology.to_links (Topology.line ~edge 4))
        Topology.line_forwarding
    in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    Inject.install ~seed ~plan engine net;
    let gen = Traffic.create () in
    let conn =
      Transport.start
        ~retry:(Transport.retry ~jitter:(Rng.create (seed + 2)) ~budget:10)
        engine net gen ~src:0 ~dst:3 ~total_packets:120
    in
    Engine.run ~until:guard_horizon engine;
    Invariant.observe ~transfers:[ transfer_status conn ]
      ~fault_transitions:(Plan.transitions plan) ~clock_start engine net
  in
  { name = "line-transfer"; links = [ (0, 1); (1, 2); (2, 3) ];
    horizon = 10.0; run }

(* Open-loop constant-rate traffic over a ring healed by [detector]:
   failover, restoration and flapping under arbitrary faults, with the
   control plane's timers bounded so the engine drains.  Under
   [Verified], adjacency probing, transit probes, quarantine and flap
   damping also run against the gray / unidirectional / flap /
   blackhole episodes hello-only detection is structurally blind to.
   No covert budget is declared: a random plan may gray out every
   path, so the only universal claim is the accounting one the
   invariant always makes. *)
let ring name detector =
  let edge = { Topology.latency = 0.005; bandwidth_bps = 1e7 } in
  let run ~seed ~plan =
    let net =
      Net.create
        (Topology.to_links (Topology.ring ~edge 6))
        (fun ~node:_ ~target:_ _ -> None)
    in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    let heal = Selfheal.attach ~detector ~until:12.0 engine net in
    Inject.install ~seed ~plan engine net;
    Traffic.constant_flow
      (Traffic.create ())
      engine net ~start:0.2 ~interval:0.1 ~count:80
      ~make:(fun gen ~created ->
        Packet.make ~id:(Traffic.fresh_id gen) ~src:0 ~dst:3 ~created ());
    Engine.run ~until:guard_horizon engine;
    Invariant.observe ~reconvergences:(Selfheal.reconvergences heal)
      ~fault_transitions:(Plan.transitions plan) ~clock_start engine net
  in
  { name;
    links = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ];
    horizon = 10.0; run }

(* ring-selfheal exercises failure detection, re-convergence and
   flapping under the hello-only control plane. *)
let ring_selfheal = ring "ring-selfheal" Selfheal.Hello_only
let ring_verified = ring "ring-verified" Selfheal.Verified

(* Two crossing open-loop flows on a 3x3 grid with static tables:
   drops must stay exactly attributed however the plan carves up the
   mesh. *)
let grid_static =
  let run ~seed ~plan =
    let links = Topology.to_links (Topology.grid 3 3) in
    let table = Linkstate.compute_live links ~metric:`Hops in
    let net = Net.create links (Linkstate.forwarding table) in
    let engine = Engine.create () in
    let clock_start = Engine.now engine in
    Inject.install ~seed ~plan engine net;
    let gen = Traffic.create () in
    let flow ~src ~dst ~start =
      Traffic.constant_flow gen engine net ~start ~interval:0.15 ~count:40
        ~make:(fun gen ~created ->
          Packet.make ~id:(Traffic.fresh_id gen) ~src ~dst ~created ())
    in
    flow ~src:0 ~dst:8 ~start:0.1;
    flow ~src:2 ~dst:6 ~start:0.175;
    Engine.run ~until:guard_horizon engine;
    Invariant.observe ~fault_transitions:(Plan.transitions plan) ~clock_start
      engine net
  in
  { name = "grid-static";
    links =
      [ (0, 1); (1, 2); (3, 4); (4, 5); (6, 7); (7, 8);
        (0, 3); (3, 6); (1, 4); (4, 7); (2, 5); (5, 8) ];
    horizon = 8.0; run }

let all = [ line_transfer; ring_selfheal; ring_verified; grid_static ]

let find name = List.find_opt (fun s -> s.name = name) all

let fits t plan =
  let has_node n = List.exists (fun (a, b) -> a = n || b = n) t.links in
  let misfit spec =
    match Plan.target spec with
    | `Link (u, v) ->
      if List.mem (u, v) t.links || List.mem (v, u) t.links then None
      else Some (Printf.sprintf "no link %d-%d" u v)
    | `Node n -> if has_node n then None else Some (Printf.sprintf "no node %d" n)
  in
  match
    List.find_map
      (fun spec -> Option.map (fun m -> (spec, m)) (misfit spec))
      plan
  with
  | None -> Ok ()
  | Some (spec, m) ->
    Error
      (Printf.sprintf "%s has %s (episode %S)" t.name m (Plan.spec_string spec))

let bind name plan =
  match find name with
  | None -> Error (Printf.sprintf "unknown scenario %S" name)
  | Some t -> Result.map (fun () -> t) (fits t plan)
