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
module Selfheal = Tussle_routing.Selfheal
module Plan = Tussle_fault.Plan
module Seed = Tussle_fault.Seed
module Ring = Heal_ring

(* off the hello grid (hellos fire at multiples of 50 ms), so
   detection timing never depends on same-timestamp event order *)
let outage = Plan.window 0.48 2.63

let heal = Ring.Heal Selfheal.Hello_only

let ratio_of ~healthy (r : Ring.stats) =
  100.0 *. float_of_int r.delivered /. float_of_int healthy.Ring.delivered

(* ---------- part B: seeded Link_down sweep, static vs self-heal ---------- *)

type sweep_item = {
  index : int;
  item_seed : int;
  link : int * int;
  w : Plan.window;
}

type sweep_result = {
  item : sweep_item;
  static_r : Ring.stats;
  heal_r : Ring.stats;
}

let draw_items ~fault_seed ~count path_pairs =
  let rng = Rng.create fault_seed in
  List.init count (fun k ->
      let link, w = Ring.draw_outage rng path_pairs in
      { index = k; item_seed = fault_seed + (1013 * (k + 1)); link; w })

(* One outage under static tables and under self-healing. *)
let static_and_heal ~seed (u, v) w =
  let plan = [ Plan.Link_down { u; v; w } ] in
  let fault_at = w.Plan.from_s in
  ( Ring.run ~seed ~plan ~fault_at Ring.Static,
    Ring.run ~seed ~plan ~fault_at heal )

let run_item item =
  let static_r, heal_r =
    static_and_heal ~seed:item.item_seed item.link item.w
  in
  { item; static_r; heal_r }

let run () =
  let fault_seed = Seed.get () in
  let path = Ring.primary_path () in
  let path_pairs = Ring.adjacent_pairs path in
  let fu, fv = List.hd path_pairs in
  (* part A: one deterministic outage, four control planes *)
  let plan = [ Plan.Link_down { u = fu; v = fv; w = outage } ] in
  let run plan control =
    Ring.run ~seed:(fault_seed + 7) ~plan ~fault_at:outage.Plan.from_s control
  in
  let healthy = run [] Ring.Static in
  let static_r = run plan Ring.Static in
  let heal_r = run plan heal in
  let relay_r = run plan Ring.Relay in
  let results =
    [ ("healthy (no fault)", healthy); ("static tables", static_r);
      ("self-healing", heal_r); ("overlay failover", relay_r) ]
  in
  let ta =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Left ]
      [ "control plane"; "delivered"; "% of healthy"; "link-down drops";
        "reconv"; "convergence" ]
  in
  List.iter
    (fun (name, (r : Ring.stats)) ->
      Table.add_row ta
        [ name;
          Printf.sprintf "%d/%d" r.delivered r.offered;
          Ring.pct (ratio_of ~healthy r);
          string_of_int r.link_down_drops;
          string_of_int r.reconvergences;
          Ring.seconds r.convergence_s ])
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
          Ring.pct (ratio_of ~healthy s.static_r);
          Ring.pct (ratio_of ~healthy s.heal_r);
          Ring.seconds s.heal_r.convergence_s ])
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
      Ring.packets Ring.src Ring.dst Ring.nodes
      (String.concat "-" (List.map string_of_int path))
      fu fv
      (Printf.sprintf "[%.2f, %.2f)" outage.Plan.from_s outage.Plan.until_s)
      fault_seed (Table.render ta) (Selfheal.hello_interval *. 1000.0)
      Selfheal.hellos_missed
      (Selfheal.recompute_delay *. 1000.0)
      (Table.render tb) mean_static mean_heal
  in
  let ok =
    (* the healthy baseline is perfect and every run drains *)
    healthy.delivered = Ring.packets
    && healthy.link_down_drops = 0
    && List.for_all
         (fun (_, (r : Ring.stats)) -> r.drained && r.offered = Ring.packets)
         results
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
  let path_pairs = Ring.adjacent_pairs (Ring.primary_path ()) in
  let link, w = Ring.draw_outage (Rng.create seed) path_pairs in
  let static_r, heal_r = static_and_heal ~seed link w in
  [
    ("availability_static", Ring.pct_of static_r);
    ("availability_heal", Ring.pct_of heal_r);
    ("availability_gap", Ring.pct_of heal_r -. Ring.pct_of static_r);
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
