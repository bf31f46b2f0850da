(* The ring E29 and E30 both measure: a 120-packet constant-rate flow
   0 -> 3 on a 6-ring with a static `Hops table, one fault plan, and a
   choice of control plane.  Both experiments run their faults through
   [run], so a hello-only healing run means the same simulation in
   either. *)

module Rng = Tussle_prelude.Rng
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Traffic = Tussle_netsim.Traffic
module Linkstate = Tussle_routing.Linkstate
module Selfheal = Tussle_routing.Selfheal
module Overlay = Tussle_routing.Overlay
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject

let nodes = 6
let src = 0
let dst = 3
let edge = { Topology.latency = 0.005; bandwidth_bps = 1e7 }
let packets = 120
let send_interval = 0.025
let first_send = 0.05
let heal_until = 4.0
let guard_horizon = 600.0

type control =
  | Static  (* the static table throughout *)
  | Relay
      (* static tables; the source detours each packet through the
         first relay whose legs are alive at send time *)
  | Heal of Selfheal.detector  (* a self-healing control plane *)

type stats = {
  delivered : int;
  offered : int;
  link_down_drops : int;
  covert_drops : int;  (* gray-loss + blackholed *)
  reconvergences : int;
  suppressions : int;
  convergence_s : float option;
      (* first table swap at or after the fault, relative to it *)
  drained : bool;
}

let fresh_links () = Topology.to_links (Topology.ring ~edge nodes)

(* The links the faults target are read off the static table's actual
   chosen path, not hardcoded — robust to Dijkstra tie-breaks. *)
let primary_path () =
  let static = Linkstate.compute_live (fresh_links ()) ~metric:`Hops in
  match Linkstate.path static ~src ~dst with
  | Some p -> p
  | None -> failwith "Heal_ring: ring must connect src and dst"

let rec adjacent_pairs = function
  | a :: (b :: _ as rest) -> (a, b) :: adjacent_pairs rest
  | _ -> []

(* One outage on the primary path: a link, and a window opening in
   [0.3, 0.9) that lasts 0.8 to 1.6 s. *)
let draw_outage rng path_pairs =
  let link = Rng.choice_list rng path_pairs in
  let from_s = Rng.uniform rng 0.3 0.9 in
  let until_s = from_s +. Rng.uniform rng 0.8 1.6 in
  (link, Plan.window from_s until_s)

let run ~seed ~plan ~fault_at control =
  let links = fresh_links () in
  let static = Linkstate.compute_live links ~metric:`Hops in
  let net = Net.create links (Linkstate.forwarding static) in
  let engine = Engine.create () in
  let heal =
    match control with
    | Heal detector ->
      Some
        (Selfheal.attach ~detector ~metric:`Hops ~until:heal_until engine net)
    | Static | Relay -> None
  in
  if plan <> [] then Inject.install ~seed ~plan engine net;
  let candidates =
    List.filter (fun n -> n <> src && n <> dst) (List.init nodes Fun.id)
  in
  let source_route () =
    match control with
    | Relay -> (
      (* the overlay measures ground-truth liveness of the static path
         at send time — per packet, no control-plane lag *)
      let can_reach a b = Overlay.path_alive static links ~src:a ~dst:b in
      match Overlay.failover_waypoints ~can_reach ~candidates ~src ~dst with
      | Some waypoints -> waypoints
      | None -> [])
    | Static | Heal _ -> []
  in
  Traffic.constant_flow
    (Traffic.create ())
    engine net ~start:first_send ~interval:send_interval ~count:packets
    ~make:(fun gen ~created ->
      let source_route = source_route () in
      Packet.make ~id:(Traffic.fresh_id gen) ~source_route ~src ~dst
        ~created ());
  (* the verified control plane injects transit probes of its own (ids
     in the reserved range): count the flow's packets only *)
  let delivered = ref 0 and offered = ref 0 in
  let link_down_drops = ref 0 and covert_drops = ref 0 in
  Net.on_complete net (fun p o ->
      if p.Packet.id < Selfheal.probe_id_base then begin
        incr offered;
        match o with
        | Net.Delivered _ -> incr delivered
        | Net.Lost (Net.Link_down _) -> incr link_down_drops
        | Net.Lost (Net.Gray_loss _ | Net.Blackholed _) -> incr covert_drops
        | Net.Lost _ -> ()
      end);
  Engine.run ~until:guard_horizon engine;
  let times =
    match heal with Some h -> Selfheal.reconvergence_times h | None -> []
  in
  {
    delivered = !delivered;
    offered = !offered;
    link_down_drops = !link_down_drops;
    covert_drops = !covert_drops;
    reconvergences = Option.fold ~none:0 ~some:Selfheal.reconvergences heal;
    suppressions = Option.fold ~none:0 ~some:Selfheal.suppressions heal;
    convergence_s =
      Option.map
        (fun t -> t -. fault_at)
        (List.find_opt (fun t -> t >= fault_at) times);
    drained = Engine.pending engine = 0;
  }

(* Delivered, as a percentage of the flow. *)
let pct_of r = 100.0 *. float_of_int r.delivered /. float_of_int packets

let pct = Printf.sprintf "%.1f"

let seconds = function Some c -> Printf.sprintf "%.3f s" c | None -> "-"
