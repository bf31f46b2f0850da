(* E28 — Tussle under faults (§VI-A): covert vs. revealing failures on
   a shared path, and transport resilience across a seeded sweep of
   fault plans.

   Everything is derived from [Tussle_fault.Seed] (the CLI/bench
   [--fault-seed] flag): the same seed reproduces the sweep
   byte-for-byte, a different seed draws different plans — the
   determinism CI's fault-battery smoke pins down. *)

module Rng = Tussle_prelude.Rng
module Table = Tussle_prelude.Table
module Pool = Tussle_prelude.Pool
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Link = Tussle_netsim.Link
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Traffic = Tussle_netsim.Traffic
module Transport = Tussle_netsim.Transport
module Diagnosis = Tussle_netsim.Diagnosis
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Seed = Tussle_fault.Seed

(* ---------- part A: localizing an injected middlebox failure ---------- *)

let diagnose ~fault_seed ~covert =
  let net =
    Net.create (Topology.to_links (Topology.line 6)) Topology.line_forwarding
  in
  let engine = Engine.create () in
  Inject.install ~seed:fault_seed
    ~plan:[ Plan.Middlebox_break { node = 3; w = Plan.always; covert } ]
    engine net;
  let gen = Traffic.create () in
  let make ~target =
    Packet.make ~id:(Traffic.fresh_id gen) ~app:Packet.File_sharing ~src:0
      ~dst:target ~created:(Engine.now engine) ()
  in
  let probe = Diagnosis.net_probe net engine ~make in
  Diagnosis.localize ~probe ~path:[ 0; 1; 2; 3; 4; 5 ]

(* ---------- part B: transport goodput under a fault-plan sweep ---------- *)

(* slow enough that a 1500-byte packet costs 6 ms of wire time, so a
   200-packet transfer genuinely overlaps the fault windows *)
let sweep_edge = { Topology.latency = 0.005; bandwidth_bps = 2e6 }
let sweep_packets = 200
let sweep_size = 8
let plan_horizon = 10.0

type sweep_result = {
  index : int;
  episodes : int;
  status : Transport.status;
  retransmissions : int;
  fault_drops : int;
  goodput : float;
  drained : bool;
}

(* One transfer 0 -> 3 over a 4-node line.  [plan = None] is the
   healthy baseline every faulted run is measured against. *)
let run_transfer ~item_seed ~plan =
  let net =
    Net.create
      (Topology.to_links (Topology.line ~edge:sweep_edge 4))
      Topology.line_forwarding
  in
  let engine = Engine.create () in
  let episodes =
    match plan with
    | None -> 0
    | Some p ->
      Inject.install ~seed:(item_seed + 17) ~plan:p engine net;
      List.length p
  in
  let gen = Traffic.create () in
  let conn =
    Transport.start
      ~retry:(Transport.retry ~jitter:(Rng.create (item_seed + 3)) ~budget:12)
      engine net gen ~src:0 ~dst:3 ~total_packets:sweep_packets
  in
  (* the horizon is a hang guard only: backoff and the retry budget
     must end the transfer (completed or abandoned) long before it *)
  Engine.run ~until:600.0 engine;
  let fault_drops = Net.count_losses Net.is_fault_drop (Net.losses net) in
  {
    index = 0;
    episodes;
    status = Transport.status conn;
    retransmissions = Transport.retransmissions conn;
    fault_drops;
    goodput = Transport.goodput conn ~now:(Engine.now engine);
    drained = Engine.pending engine = 0;
  }

(* Every plan opens with a deterministic mid-flight outage of the
   middle hop (so each run exercises the retransmission path), then
   adds seeded random episodes over the whole line. *)
let sweep_plan rng =
  let fixed = Plan.Link_down { u = 1; v = 2; w = Plan.window 0.2 0.9 } in
  fixed
  :: Plan.random rng
       ~links:[ (0, 1); (1, 2); (2, 3) ]
       ~horizon:plan_horizon ~episodes:3

(* The sweep's faulted transfers at [fault_seed], in plan order. *)
let faulted_sweep ~fault_seed =
  let plan_rng = Rng.create fault_seed in
  let items =
    List.init sweep_size (fun k ->
        (k, fault_seed + (1009 * (k + 1)), sweep_plan plan_rng))
  in
  Pool.map
    (fun (k, item_seed, plan) ->
      { (run_transfer ~item_seed ~plan:(Some plan)) with index = k })
    items

let status_string = function
  | Transport.Completed -> "completed"
  | Transport.Abandoned -> "abandoned"
  | Transport.Active -> "still active (BUG)"

let run () =
  let fault_seed = Seed.get () in
  (* part A *)
  let revealing = diagnose ~fault_seed ~covert:false in
  let covert = diagnose ~fault_seed ~covert:true in
  let ta =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right ]
      [ "injected failure mode"; "diagnosis"; "probes" ]
  in
  List.iter
    (fun (label, (r : Diagnosis.report)) ->
      Table.add_row ta
        [ label; Diagnosis.verdict_string r.Diagnosis.verdict;
          string_of_int r.Diagnosis.probes_used ])
    [ ("revealing (device confesses)", revealing);
      ("covert (silent drop)", covert) ];
  (* part B *)
  let healthy =
    run_transfer ~item_seed:(fault_seed + 7) ~plan:None
  in
  let faulted = faulted_sweep ~fault_seed in
  let tb =
    Table.create
      ~aligns:
        [ Table.Right; Table.Right; Table.Left; Table.Right; Table.Right;
          Table.Right; Table.Right ]
      [ "plan"; "episodes"; "outcome"; "retx"; "fault drops";
        "goodput (pkt/s)"; "% of healthy" ]
  in
  List.iter
    (fun r ->
      Table.add_row tb
        [ string_of_int r.index; string_of_int r.episodes;
          status_string r.status; string_of_int r.retransmissions;
          string_of_int r.fault_drops; Printf.sprintf "%.1f" r.goodput;
          Printf.sprintf "%.1f" (100.0 *. r.goodput /. healthy.goodput) ])
    faulted;
  let mean_goodput =
    List.fold_left (fun acc r -> acc +. r.goodput) 0.0 faulted
    /. float_of_int sweep_size
  in
  let body =
    Printf.sprintf
      "%s\n\
       Sweep of %d seeded fault plans (fault seed %d), each a transfer \
       of %d packets\nover a 4-node line with a deterministic mid-flight \
       outage plus 3 random\nepisodes; healthy baseline goodput %.1f \
       pkt/s:\n\n\
       %s\n\
       mean goodput under faults: %.1f pkt/s (%.1f%% of healthy)\n"
      (Table.render ta) sweep_size fault_seed sweep_packets healthy.goodput
      (Table.render tb) mean_goodput
      (100.0 *. mean_goodput /. healthy.goodput)
  in
  let ok =
    (* §VI-A: a revealing failure is localized exactly in one probe; a
       covert one costs a sweep and yields only a bracket *)
    (match revealing.Diagnosis.verdict with
    | Diagnosis.Blocked_at (name, 3) -> name = Plan.broken_device_name
    | _ -> false)
    && revealing.Diagnosis.probes_used = 1
    && (match covert.Diagnosis.verdict with
       | Diagnosis.Blocked_between (2, 3) -> true
       | _ -> false)
    && covert.Diagnosis.probes_used > revealing.Diagnosis.probes_used
    (* the baseline must be clean and the harness must never hang:
       every faulted run drains the engine with a terminal outcome *)
    && healthy.status = Transport.Completed
    && healthy.fault_drops = 0
    && List.for_all
         (fun r -> r.drained && r.status <> Transport.Active)
         faulted
    (* graceful degradation is quantified, not assumed: the forced
       outage makes every run retransmit and lose packets to faults,
       and the sweep's mean goodput sits below the healthy baseline *)
    && List.for_all
         (fun r -> r.retransmissions > 0 && r.fault_drops > 0)
         faulted
    && mean_goodput < healthy.goodput
  in
  (body, ok)

let experiment =
  {
    Experiment.id = "E28";
    title = "Tussle under faults: diagnosis and resilient transport";
    paper_claim =
      "\"Failures of transparency will occur — design what happens then\" \
       (§VI-A): when failures are first-class inputs, a revealing device \
       is still localized exactly in one probe while a covert one is \
       only ever bracketed at higher probe cost, and a transport with \
       backoff-paced retransmission and a give-up budget degrades \
       gracefully under injected link faults — measurably lower goodput, \
       but never a hung engine.";
    run;
    sweep = None;
  }
