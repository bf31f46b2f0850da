module Rng = Tussle_prelude.Rng
module Pool = Tussle_prelude.Pool
module Plan = Tussle_fault.Plan

type run = {
  index : int;
  scenario : string;
  seed : int;
  episodes : int;
  plan : Plan.t;
  violations : Invariant.violation list;
}

(* Per-run derivation depends only on (master seed, index) — never on
   which worker domain picked the item up — so a sweep is byte-
   identical for any --domains count.  7919 (the 1000th prime) just
   spreads the per-index seeds away from each other. *)
let draw ~master_seed ~index (s : Scenario.t) =
  let rng = Rng.create (master_seed + (7919 * (index + 1))) in
  let episodes = 1 + Rng.int rng 4 in
  let plan = Plan.random rng ~links:s.links ~horizon:s.horizon ~episodes in
  let seed = Rng.int rng 1_000_000 in
  (plan, episodes, seed)

let scenario_for index =
  List.nth Scenario.all (index mod List.length Scenario.all)

let run_one ~master_seed index =
  let s = scenario_for index in
  let plan, episodes, seed = draw ~master_seed ~index s in
  let obs = s.run ~seed ~plan in
  {
    index;
    scenario = s.name;
    seed;
    episodes;
    plan;
    violations = Invariant.check obs;
  }

let run_sweep ~seed ~runs () =
  if runs < 1 then invalid_arg "Sweep.run_sweep: runs must be >= 1";
  Pool.map (run_one ~master_seed:seed) (List.init runs Fun.id)

let failures runs = List.filter (fun r -> r.violations <> []) runs

let still_fails (s : Scenario.t) ~seed plan =
  Invariant.check (s.run ~seed ~plan) <> []

let shrink_run r =
  match Scenario.find r.scenario with
  | None -> r.plan
  | Some s -> Shrink.shrink ~still_fails:(still_fails s ~seed:r.seed) r.plan

let replay (e : Corpus.entry) =
  Result.map
    (fun (s : Scenario.t) -> Invariant.check (s.run ~seed:e.seed ~plan:e.plan))
    (Scenario.bind e.scenario e.plan)
