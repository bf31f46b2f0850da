(* The coverage-guided mutator.

   Phase 0 evaluates the seed corpus — every usable `chaos/corpus`
   entry plus one fresh `Plan.random` draw per scenario — and admits
   the clean ones into the live corpus.  Each subsequent batch derives
   every candidate purely from (seed, global index) and the live
   corpus as it stood at the batch boundary: pick a parent, apply 1-3
   `Plan.mutate` operators, draw an injection seed, and evaluate on
   `Pool.map`.  A mutant joins the live corpus exactly when its
   behavior signature is unseen; a violating mutant is shrunk and
   persisted instead (crashes are findings, not parents).  Batch
   boundaries are fixed by candidate count, never by wall clock, so
   the whole search is byte-identical across --domains. *)

module Rng = Tussle_prelude.Rng
module Pool = Tussle_prelude.Pool
module Plan = Tussle_fault.Plan
module Scenario = Tussle_chaos.Scenario
module Corpus = Tussle_chaos.Corpus
module Sweep = Tussle_chaos.Sweep

let name = "mutate"

(* Candidates per generation: small enough that coverage feedback
   steers often, large enough to keep the domain pool busy. *)
let batch = 32

type live = { scenario : Scenario.t; plan : Plan.t }

let search ?corpus_dir ?(seeds = []) ~scenarios ~seed ~budget () =
  if budget < 1 then invalid_arg "Mutate.search: budget must be >= 1";
  if scenarios = [] then invalid_arg "Mutate.search: no scenarios";
  let find_scenario name =
    List.find_opt (fun s -> s.Scenario.name = name) scenarios
  in
  (* Phase 0 candidate list: corpus entries whose plan fits a scenario
     we have, then one fresh random draw per scenario.  Truncated to
     the budget and counted against it — seeding is not free. *)
  let seed_cands =
    List.filter_map
      (fun (e : Corpus.entry) ->
        match find_scenario e.Corpus.scenario with
        | Some s when Scenario.fits s e.Corpus.plan = Ok () ->
          Some (s, Some e.Corpus.plan)
        | _ -> None)
      seeds
    @ List.map (fun s -> (s, None)) scenarios
  in
  let seed_cands = List.filteri (fun i _ -> i < budget) seed_cands in
  let seeded = List.length seed_cands in
  let phase0 =
    List.mapi
      (fun i (s, plan) ->
        let rng = Backend.candidate_rng ~seed i in
        let plan =
          match plan with
          | Some p -> p
          | None ->
            Plan.random rng ~links:s.Scenario.links ~horizon:s.Scenario.horizon
              ~episodes:(1 + Rng.int rng 4)
        in
        (s, plan, Rng.int rng 1_000_000))
      seed_cands
  in
  let eval cands =
    Pool.map
      (fun (s, plan, inj) -> Backend.evaluate s ~seed:inj plan)
      cands
  in
  let seen = Hashtbl.create 64 in
  let found = ref [] and live = ref [] in
  let absorb ~into_live cands results =
    List.iter2
      (fun (s, plan, inj) (violations, sg) ->
        let novel = not (Hashtbl.mem seen sg) in
        if novel then Hashtbl.add seen sg ();
        if violations <> [] then
          found :=
            Sweep.resolve ?corpus_dir s ~seed:inj ~plan violations :: !found
        else if into_live || novel then live := { scenario = s; plan } :: !live)
      cands results
  in
  (* every clean phase-0 entry is a parent, novel signature or not *)
  absorb ~into_live:true phase0 (eval phase0);
  if !live = [] then
    (* pathological seed corpus (everything violates): fall back to the
       empty plan per scenario so mutation still has parents *)
    live := List.rev_map (fun s -> { scenario = s; plan = [] }) scenarios;
  let frontier = ref [ Hashtbl.length seen ] in
  let runs = ref seeded in
  while !runs < budget do
    let parents = Array.of_list (List.rev !live) in
    let n = min batch (budget - !runs) in
    let cands =
      List.init n (fun k ->
          let rng = Backend.candidate_rng ~seed (!runs + k) in
          let parent = parents.(Rng.int rng (Array.length parents)) in
          let s = parent.scenario in
          let plan = ref parent.plan in
          for _ = 1 to 1 + Rng.int rng 3 do
            plan :=
              Plan.mutate rng ~links:s.Scenario.links
                ~horizon:s.Scenario.horizon !plan
          done;
          (s, !plan, Rng.int rng 1_000_000))
    in
    absorb ~into_live:false cands (eval cands);
    runs := !runs + n;
    frontier := Hashtbl.length seen :: !frontier
  done;
  {
    Backend.backend = name;
    runs = !runs;
    seeded;
    space = 0;
    certified = false;
    frontier = List.rev !frontier;
    found = Backend.dedupe_found (List.rev !found);
  }
