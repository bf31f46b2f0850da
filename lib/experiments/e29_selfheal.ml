(* E29 — Self-healing routing: availability and convergence under
   link failure.

   PR 4 made faults injectable; this experiment measures what routing
   does about them.  The same ring, the same traffic, the same
   mid-run Link_down — under four control planes: no fault (healthy
   baseline), static tables (PR 4's world: the outage drains into
   link-down drops until the plan restores the link), a self-healing
   link-state control plane (hello-timeout detection + delayed SPF,
   {!Tussle_routing.Selfheal}), and overlay failover (end systems
   detect at probe speed and source-route around the hole).  Part B
   sweeps seeded random outages and compares static vs self-healing
   availability and convergence time. *)

module Rng = Tussle_prelude.Rng
module Table = Tussle_prelude.Table
module Pool = Tussle_prelude.Pool
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Topology = Tussle_netsim.Topology
module Traffic = Tussle_netsim.Traffic
module Linkstate = Tussle_routing.Linkstate
module Selfheal = Tussle_routing.Selfheal
module Overlay = Tussle_routing.Overlay
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Seed = Tussle_fault.Seed

let nodes = 6
let src = 0
let dst = 3
let edge = { Topology.latency = 0.005; bandwidth_bps = 1e7 }
let packets = 120
let send_interval = 0.025
let first_send = 0.05

(* off the hello grid (hellos fire at multiples of 50 ms), so
   detection timing never depends on same-timestamp event order *)
let outage = Plan.window 0.48 2.63

let heal_until = 4.0
let guard_horizon = 600.0
let heal_config = { Selfheal.default_config with metric = `Hops }

type mode = Healthy | Static | Heal | Relay

let mode_name = function
  | Healthy -> "healthy (no fault)"
  | Static -> "static tables"
  | Heal -> "self-healing"
  | Relay -> "overlay failover"

type run_stats = {
  delivered : int;
  injected : int;
  link_down_drops : int;
  reconvergences : int;
  convergence_s : float option;
      (* first table swap after the fault opened, relative to it *)
  drained : bool;
}

let fresh_links () = Topology.to_links (Topology.ring ~edge nodes)

(* The link the fault targets is read off the static table's actual
   chosen path, not hardcoded — robust to Dijkstra tie-breaks. *)
let primary_path () =
  let static = Linkstate.compute_live (fresh_links ()) ~metric:`Hops in
  match Linkstate.path static ~src ~dst with
  | Some p -> p
  | None -> failwith "E29: ring must connect src and dst"

let rec adjacent_pairs = function
  | a :: (b :: _ as rest) -> (a, b) :: adjacent_pairs rest
  | _ -> []

let run_mode ~seed ~plan ~fault_at mode =
  let links = fresh_links () in
  let static = Linkstate.compute_live links ~metric:`Hops in
  let net = Net.create links (Linkstate.forwarding static) in
  let engine = Engine.create () in
  let heal =
    match mode with
    | Heal ->
      Some (Selfheal.attach ~config:heal_config ~until:heal_until engine net)
    | _ -> None
  in
  if plan <> [] then Inject.install ~seed ~plan engine net;
  let gen = Traffic.create (Rng.create (seed + 1)) in
  let candidates =
    List.filter (fun n -> n <> src && n <> dst) (List.init nodes Fun.id)
  in
  let send engine =
    let source_route =
      match mode with
      | Relay -> (
        (* the overlay measures ground-truth liveness of the static
           path at send time and detours through the first relay with
           both legs alive — per-packet, no control-plane lag *)
        let can_reach a b = Overlay.path_alive static links ~src:a ~dst:b in
        match Overlay.failover_waypoints ~can_reach ~candidates ~src ~dst with
        | Some waypoints -> waypoints
        | None -> [])
      | _ -> []
    in
    Net.inject net engine
      (Traffic.next_packet gen ~source_route ~src ~dst
         ~created:(Engine.now engine) ())
  in
  for k = 0 to packets - 1 do
    ignore
      (Engine.schedule engine
         (first_send +. (send_interval *. float_of_int k))
         send)
  done;
  Engine.run ~until:guard_horizon engine;
  {
    delivered = Net.delivered_count net;
    injected = Net.injected_count net;
    link_down_drops =
      Net.count_losses
        (function Net.Link_down _ -> true | _ -> false)
        (Net.losses net);
    reconvergences =
      (match heal with Some h -> Selfheal.reconvergences h | None -> 0);
    convergence_s =
      (match heal with
      | Some h -> (
        match Selfheal.reconvergence_times h with
        | t :: _ -> Some (t -. fault_at)
        | [] -> None)
      | None -> None);
    drained = Engine.pending engine = 0;
  }

let ratio_of ~healthy r =
  100.0 *. float_of_int r.delivered /. float_of_int healthy.delivered

(* ---------- part B: seeded Link_down sweep, static vs self-heal ---------- *)

type sweep_item = {
  index : int;
  item_seed : int;
  link : int * int;
  w : Plan.window;
}

type sweep_result = {
  item : sweep_item;
  static_r : run_stats;
  heal_r : run_stats;
}

let draw_items ~fault_seed ~count path_pairs =
  let rng = Rng.create fault_seed in
  List.init count (fun k ->
      let link = Rng.choice_list rng path_pairs in
      let from_s = Rng.uniform rng 0.3 0.9 in
      let until_s = from_s +. Rng.uniform rng 0.8 1.6 in
      {
        index = k;
        item_seed = fault_seed + (1013 * (k + 1));
        link;
        w = Plan.window from_s until_s;
      })

let run_item item =
  let u, v = item.link in
  let plan = [ Plan.Link_down { u; v; w = item.w } ] in
  let fault_at = item.w.Plan.from_s in
  {
    item;
    static_r = run_mode ~seed:item.item_seed ~plan ~fault_at Static;
    heal_r = run_mode ~seed:item.item_seed ~plan ~fault_at Heal;
  }

let pct x = Printf.sprintf "%.1f" x

let run () =
  let fault_seed = Seed.get () in
  let path = primary_path () in
  let path_pairs = adjacent_pairs path in
  let fu, fv = List.hd path_pairs in
  (* part A: one deterministic outage, four control planes *)
  let plan = [ Plan.Link_down { u = fu; v = fv; w = outage } ] in
  let fault_at = outage.Plan.from_s in
  let modes = [ Healthy; Static; Heal; Relay ] in
  let results =
    List.map
      (fun mode ->
        let plan = if mode = Healthy then [] else plan in
        (mode, run_mode ~seed:(fault_seed + 7) ~plan ~fault_at mode))
      modes
  in
  let healthy = List.assoc Healthy results in
  let ta =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Left ]
      [ "control plane"; "delivered"; "% of healthy"; "link-down drops";
        "reconv"; "convergence" ]
  in
  List.iter
    (fun (mode, r) ->
      Table.add_row ta
        [ mode_name mode;
          Printf.sprintf "%d/%d" r.delivered r.injected;
          pct (ratio_of ~healthy r);
          string_of_int r.link_down_drops;
          string_of_int r.reconvergences;
          (match r.convergence_s with
          | Some c -> Printf.sprintf "%.3f s" c
          | None -> "-") ])
    results;
  (* part B *)
  let items = draw_items ~fault_seed ~count:6 path_pairs in
  let sweep = Pool.map run_item items in
  let tb =
    Table.create
      ~aligns:
        [ Table.Right; Table.Left; Table.Left; Table.Right; Table.Right;
          Table.Right ]
      [ "outage"; "link"; "window"; "static %"; "self-heal %";
        "convergence" ]
  in
  List.iter
    (fun s ->
      let u, v = s.item.link in
      Table.add_row tb
        [ string_of_int s.item.index;
          Printf.sprintf "%d-%d" u v;
          Printf.sprintf "[%.2f, %.2f)" s.item.w.Plan.from_s
            s.item.w.Plan.until_s;
          pct (ratio_of ~healthy s.static_r);
          pct (ratio_of ~healthy s.heal_r);
          (match s.heal_r.convergence_s with
          | Some c -> Printf.sprintf "%.3f s" c
          | None -> "-") ])
    sweep;
  let mean f =
    List.fold_left (fun acc s -> acc +. f s) 0.0 sweep
    /. float_of_int (List.length sweep)
  in
  let mean_static = mean (fun s -> ratio_of ~healthy s.static_r) in
  let mean_heal = mean (fun s -> ratio_of ~healthy s.heal_r) in
  let body =
    Printf.sprintf
      "A %d-packet flow %d -> %d on a %d-ring; primary path %s loses \
       link %d-%d\nfor %s of simulated time (fault seed %d):\n\n\
       %s\n\
       Sweep of 6 seeded outages on the primary path, static vs \
       self-healing\n(hello %.0f ms x %d missed + %.0f ms recompute):\n\n\
       %s\n\
       mean availability: static %.1f%%, self-healing %.1f%% of healthy\n"
      packets src dst nodes
      (String.concat "-" (List.map string_of_int path))
      fu fv
      (Printf.sprintf "[%.2f, %.2f)" outage.Plan.from_s outage.Plan.until_s)
      fault_seed (Table.render ta) (heal_config.Selfheal.hello_interval *. 1000.0)
      heal_config.Selfheal.hellos_missed
      (heal_config.Selfheal.recompute_delay *. 1000.0)
      (Table.render tb) mean_static mean_heal
  in
  let static_r = List.assoc Static results in
  let heal_r = List.assoc Heal results in
  let relay_r = List.assoc Relay results in
  let ok =
    (* the healthy baseline is perfect and every run drains *)
    healthy.delivered = packets
    && healthy.link_down_drops = 0
    && List.for_all (fun (_, r) -> r.drained && r.injected = packets) results
    (* static routing collapses: the outage eats over half the flow *)
    && ratio_of ~healthy static_r < 50.0
    (* self-healing restores >= 90% of healthy delivery, converging in
       under half a second, and re-converges again on restore *)
    && ratio_of ~healthy heal_r >= 90.0
    && heal_r.reconvergences >= 2
    && (match heal_r.convergence_s with
       | Some c -> c > 0.0 && c < 0.5
       | None -> false)
    (* the overlay gets there too, without touching the control plane *)
    && ratio_of ~healthy relay_r >= 90.0
    (* and the sweep generalizes both claims across seeds *)
    && List.for_all
         (fun s ->
           s.static_r.drained && s.heal_r.drained
           && ratio_of ~healthy s.heal_r > ratio_of ~healthy s.static_r)
         sweep
    && mean_heal >= 90.0
  in
  (body, ok)

(* ---------- statistical sweep surface ----------

   One replicate draws one random outage on the primary path (same
   derivation as part B's [draw_items], but from the sweep's per-run
   seed) and runs the {e same} outage under static tables and under
   self-healing — so availability metrics are paired per seed.
   Availability is delivered/offered (the healthy baseline delivers
   all [packets], asserted by the shape check, so normalizing by the
   offered count is the same ratio without a third run). *)

let probe ~seed =
  let path_pairs = adjacent_pairs (primary_path ()) in
  let rng = Rng.create seed in
  let u, v = Rng.choice_list rng path_pairs in
  let from_s = Rng.uniform rng 0.3 0.9 in
  let until_s = from_s +. Rng.uniform rng 0.8 1.6 in
  let plan = [ Plan.Link_down { u; v; w = Plan.window from_s until_s } ] in
  let static_r = run_mode ~seed ~plan ~fault_at:from_s Static in
  let heal_r = run_mode ~seed ~plan ~fault_at:from_s Heal in
  let availability r = 100.0 *. float_of_int r.delivered /. float_of_int packets in
  [
    ("availability_static", availability static_r);
    ("availability_heal", availability heal_r);
    ( "availability_gap",
      availability heal_r -. availability static_r );
    (* 0.0 when the control plane never reconverged (cannot happen for
       outages this long, but the metric must stay finite) *)
    ("heal_convergence_s", Option.value ~default:0.0 heal_r.convergence_s);
  ]

let judge sample =
  let module T = Tussle_prelude.Stats.Test in
  [
    {
      Experiment.claim = "availability(heal) > availability(static)";
      test = "paired t, greater";
      result =
        T.paired ~alternative:T.Greater
          (sample "availability_heal")
          (sample "availability_static");
    };
    {
      Experiment.claim = "availability(heal) > availability(static), unpaired";
      test = "welch t, greater";
      result =
        T.two_sample ~alternative:T.Greater
          (sample "availability_heal")
          (sample "availability_static");
    };
    {
      Experiment.claim = "mean heal availability > 80% of offered";
      test = "one-sample t, greater";
      result =
        T.one_sample ~alternative:T.Greater ~mean:80.0
          (sample "availability_heal");
    };
  ]

let experiment =
  {
    Experiment.id = "E29";
    title = "Self-healing routing: availability under failure";
    paper_claim =
      "\"Design for variation in outcome ... rigidity and imposed \
       solutions are not the path\" (§IV) and \"failures of transparency \
       will occur — design what happens then\" (§VI-A): a network whose \
       control plane can shift its choices at run time — detecting a dead \
       link and re-converging around it — keeps delivering where static \
       tables drain the same outage into black-hole drops; end-system \
       overlays reach the same availability from the edge, without the \
       network's cooperation.";
    run;
    sweep = Some { Experiment.probe; judge };
  }
