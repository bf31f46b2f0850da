(* chaos: one op is one chaos-sweep run, [Sweep.run_one ~master_seed i]:
   draw a fault plan for the run's scenario, simulate it and check every
   invariant, with the flight recorder off. *)

module Rng = Tussle_prelude.Rng
module Plan = Tussle_fault.Plan
module Scenario = Tussle_chaos.Scenario
module Invariant = Tussle_chaos.Invariant
module Sweep = Tussle_chaos.Sweep

(* Sweep runs per cycle; a quarter of them go to each scenario. *)
let cycle = 2000

(* Warm-up runs in set-up. *)
let warm = 40

let scenarios = Array.of_list Scenario.all
let sim_span = Array.map (fun (s : Scenario.t) -> "chaos." ^ s.name ^ ".sim") scenarios

let verdict i = function
  | [] -> Ok ()
  | v :: _ ->
    Error (Printf.sprintf "run %d: %s" i (Invariant.violation_string v))

(* [Sweep.run_one] taken apart into its public calls, so each can be
   timed: the same derivation as the sweep's, checked against it in
   [setup]. *)
let draw ~master_seed i =
  let s = scenarios.(i mod Array.length scenarios) in
  let rng = Rng.create (master_seed + (7919 * (i + 1))) in
  let episodes = 1 + Rng.int rng 4 in
  let plan = Plan.random rng ~links:s.links ~horizon:s.horizon ~episodes in
  (plan, Rng.int rng 1_000_000)

let setup ~seed ~plant:_ =
  let master_seed = seed in
  let op i = verdict i (Sweep.run_one ~master_seed i).violations in
  (* Warm-up: the first [warm] runs, then one run of each scenario to
     confirm that the traced decomposition still draws the sweep's
     plans. *)
  for i = 0 to warm - 1 do
    ignore (op i)
  done;
  let mirrors =
    List.for_all
      (fun i ->
        let r = Sweep.run_one ~master_seed i in
        let plan, s = draw ~master_seed i in
        r.seed = s && Plan.to_string r.plan = Plan.to_string plan)
      (List.init (Array.length scenarios) Fun.id)
  in
  let traced_op sp ~op i =
    if not mirrors then Error "traced decomposition differs from Sweep.run_one"
    else begin
      let k = i mod Array.length scenarios in
      let plan, s =
        Spans.span sp ~op "fault.plan_random" (fun () -> draw ~master_seed i)
      in
      let obs =
        Spans.span sp ~op sim_span.(k) (fun () -> scenarios.(k).run ~seed:s ~plan)
      in
      let v = Spans.span sp ~op "chaos.invariant_check" (fun () -> Invariant.check obs) in
      Spans.count sp "packets" (float_of_int obs.injected);
      Spans.count sp "dropped" (float_of_int obs.dropped);
      Spans.count sp "high_water" (float_of_int obs.engine_high_water);
      Spans.count sp "reconvergences" (float_of_int obs.reconvergences);
      verdict i v
    end
  in
  let per_layer sp ~ops =
    let c name = Workload.per (Spans.count_total sp name) ops in
    let sim_ms (s : Scenario.t) =
      ("chaos." ^ s.name ^ ".sim_ms", Workload.ms (Spans.mean sp ("chaos." ^ s.name ^ ".sim")))
    in
    [ ("fault.plan_random.us", Workload.us (Spans.mean sp "fault.plan_random")) ]
    @ List.map sim_ms Scenario.all
    @ [
        ("chaos.invariant_check.us", Workload.us (Spans.mean sp "chaos.invariant_check"));
        ("netsim.net.packets_per_op", c "packets");
        ( "netsim.net.drop_frac",
          Spans.count_total sp "dropped" /. Float.max 1. (Spans.count_total sp "packets") );
        ("netsim.engine.high_water", c "high_water");
        ("routing.selfheal.reconvergences_per_op", c "reconvergences");
      ]
  in
  { Workload.cycle; op; traced_op; per_layer }

let workload = { Workload.name = "chaos"; reference = Cache; setup }
