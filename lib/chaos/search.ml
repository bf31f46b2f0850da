(* The adversarial search: one batch loop, and per backend a generator
   of the next batch.  A generator is called with the number of
   candidates evaluated so far and the outcomes of the last batch
   (each candidate, whether it ran clean, whether its signature was
   new) and returns the next batch; [] ends the search. *)

module Rng = Tussle_prelude.Rng
module Pool = Tussle_prelude.Pool
module Plan = Tussle_fault.Plan
module Search_report = Tussle_obs.Search_report

type backend = Mutate | Exhaust

let backends = [ Mutate; Exhaust ]
let backend_name = function Mutate -> "mutate" | Exhaust -> "exhaust"

let backend_of_string s =
  let b = String.trim s in
  match List.find_opt (fun k -> backend_name k = b) backends with
  | Some k -> Ok k
  | None ->
    Error
      (Printf.sprintf "invalid backend %S (expected %s)" s
         (String.concat " or " (List.map backend_name backends)))

type candidate = { scenario : Scenario.t; plan : Plan.t; inj : int }

(* Same derivation as the chaos sweep: everything a candidate does is
   a pure function of (master seed, global candidate index). *)
let candidate_rng ~seed index = Rng.create (Rng.seed_at ~seed index)

(* ---------- mutate ---------- *)

(* Candidates per generation: small enough that coverage feedback
   steers often, large enough to keep the domain pool busy. *)
let mutate_batch = 32

(* A missing directory seeds nothing: the first save creates it. *)
let load_seeds dir =
  match Corpus.load_dir dir with
  | Ok entries -> List.filter_map (fun (_, r) -> Result.to_option r) entries
  | Error _ when not (Sys.file_exists dir) -> []
  | Error msg -> raise (Sys_error msg)

let mutate ~seeds ~scenarios ~seed ~budget =
  let find name = List.find_opt (fun s -> s.Scenario.name = name) scenarios in
  (* Phase 0: corpus entries whose plan fits a scenario we have, then
     one fresh random draw per scenario.  Truncated to the budget and
     counted against it — seeding is not free. *)
  let phase0 =
    List.filter_map
      (fun (e : Corpus.entry) ->
        match find e.Corpus.scenario with
        | Some s when Scenario.fits s e.Corpus.plan = Ok () ->
          Some (s, Some e.Corpus.plan)
        | _ -> None)
      seeds
    @ List.map (fun s -> (s, None)) scenarios
    |> List.filteri (fun i _ -> i < budget)
    |> List.mapi (fun i (s, plan) ->
           let rng = candidate_rng ~seed i in
           let plan =
             match plan with
             | Some p -> p
             | None ->
               Plan.random rng ~links:s.Scenario.links
                 ~horizon:s.Scenario.horizon ~episodes:(1 + Rng.int rng 4)
           in
           { scenario = s; plan; inj = Rng.int rng 1_000_000 })
  in
  let seeded = List.length phase0 in
  let live = ref [] in
  let next ~runs last =
    (* every clean phase-0 plan is a parent, novel signature or not;
       after that, only clean mutants with a novel signature *)
    List.iter
      (fun (c, clean, novel) ->
        if clean && (novel || runs = seeded) then
          live := (c.scenario, c.plan) :: !live)
      last;
    if runs = seeded && !live = [] then
      (* pathological seed corpus (everything violates): fall back to
         the empty plan per scenario so mutation still has parents *)
      live := List.rev_map (fun s -> (s, [])) scenarios;
    if runs = 0 then phase0
    else if runs >= budget then []
    else
      let parents = Array.of_list (List.rev !live) in
      List.init (min mutate_batch (budget - runs)) (fun k ->
          let rng = candidate_rng ~seed (runs + k) in
          let s, plan = parents.(Rng.int rng (Array.length parents)) in
          let plan = ref plan in
          for _ = 1 to 1 + Rng.int rng 3 do
            plan :=
              Plan.mutate rng ~links:s.Scenario.links
                ~horizon:s.Scenario.horizon !plan
          done;
          { scenario = s; plan = !plan; inj = Rng.int rng 1_000_000 })
  in
  (seeded, next)

(* ---------- exhaust ---------- *)

let exhaust_batch = 64

let atoms (s : Scenario.t) =
  let h = s.Scenario.horizon in
  let windows =
    [
      Plan.window 0.0 (0.5 *. h);
      Plan.window 0.0 h;
      Plan.window (0.5 *. h) h;
      Plan.window (0.5 *. h) (1.5 *. h);
    ]
  in
  let link_atoms =
    List.concat_map
      (fun (u, v) ->
        List.concat_map
          (fun w ->
            [
              Plan.Link_down { u; v; w };
              Plan.Link_loss { u; v; w; prob = 0.2 };
              Plan.Gray_loss { u; v; w; prob = 0.5 };
              Plan.Link_flap { u; v; w; period_s = 0.25 *. h; duty = 0.5 };
              Plan.Unidirectional_down { u; v; w };
              Plan.Unidirectional_down { u = v; v = u; w };
            ])
          windows)
      s.Scenario.links
  in
  let nodes =
    List.sort_uniq compare
      (List.concat_map (fun (u, v) -> [ u; v ]) s.Scenario.links)
  in
  let node_atoms =
    List.concat_map
      (fun node -> List.map (fun w -> Plan.Blackhole { node; w }) windows)
      nodes
  in
  link_atoms @ node_atoms

(* The box in enumeration order: scenario order, then the empty plan,
   the singles and the unordered pairs in atom order. *)
let box scenarios =
  List.concat_map
    (fun s ->
      let atoms = Array.of_list (atoms s) in
      let n = Array.length atoms in
      let singles = List.init n (fun i -> [ atoms.(i) ]) in
      let pairs =
        List.concat
          (List.init n (fun i ->
               List.init (n - i) (fun k -> [ atoms.(i); atoms.(i + k) ])))
      in
      List.map (fun p -> (s, p)) ([] :: (singles @ pairs)))
    scenarios
  |> Array.of_list

let exhaust box ~seed ~budget ~runs _ =
  let stop = min budget (Array.length box) in
  List.init (min exhaust_batch (stop - runs)) (fun k ->
      let i = runs + k in
      let s, plan = box.(i) in
      { scenario = s; plan; inj = Rng.int (candidate_rng ~seed i) 1_000_000 })

(* ---------- the loop ---------- *)

(* Distinct reproducers only: different found plans can shrink to the
   same 1-minimal plan, and the report should list that bug once. *)
let dedupe_found fs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (f : Sweep.found) ->
      let key = (f.scenario, Plan.to_string f.minimal) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    fs

(* Run each batch [next] yields: the oracle is the scenario under the
   plan checked against the whole invariant registry, and the behavior
   signature is the coverage signal.  Returns the runs, the frontier
   (distinct signatures after each batch) and the distinct findings. *)
let loop ?corpus_dir next =
  let seen = Hashtbl.create 64 in
  let found = ref [] and frontier = ref [] in
  let rec go runs last =
    match next ~runs last with
    | [] -> runs
    | batch ->
      let results =
        Pool.map
          (fun c ->
            let obs = c.scenario.Scenario.run ~seed:c.inj ~plan:c.plan in
            (Invariant.check obs, Signature.of_obs obs))
          batch
      in
      let outcomes =
        List.map2
          (fun c (violations, sg) ->
            let novel = not (Hashtbl.mem seen sg) in
            if novel then Hashtbl.add seen sg ();
            if violations <> [] then
              found :=
                Sweep.resolve ?corpus_dir c.scenario ~seed:c.inj ~plan:c.plan
                  violations
                :: !found;
            (c, violations = [], novel))
          batch results
      in
      frontier := Hashtbl.length seen :: !frontier;
      go (runs + List.length batch) outcomes
  in
  let runs = go 0 [] in
  (runs, List.rev !frontier, dedupe_found (List.rev !found))

let finding_of_found (f : Sweep.found) =
  {
    Search_report.scenario = f.scenario;
    seed = f.seed;
    found_episodes = List.length f.plan;
    minimal_plan = Plan.to_string f.minimal;
    invariants = List.map (fun v -> v.Invariant.invariant) f.violations;
    corpus_file = Option.value ~default:"" f.file;
  }

let run ?corpus_dir ~backend ~scenarios ~seed ~budget () =
  if budget < 1 then invalid_arg "Search.run: budget must be >= 1";
  if scenarios = [] then invalid_arg "Search.run: no scenarios";
  (* Checked before the backend is chosen, though only mutate reads
     it: a file or an unreadable directory is [Sys_error] for every
     backend, a missing directory is created by the first save. *)
  Option.iter
    (fun dir -> if Sys.file_exists dir then ignore (Sys.readdir dir))
    corpus_dir;
  let seeded, space, next =
    match backend with
    | Mutate ->
      let seeds = Option.fold ~none:[] ~some:load_seeds corpus_dir in
      let seeded, next = mutate ~seeds ~scenarios ~seed ~budget in
      (seeded, 0, next)
    | Exhaust ->
      let box = box scenarios in
      (0, Array.length box, exhaust box ~seed ~budget)
  in
  let runs, frontier, found = loop ?corpus_dir next in
  {
    Search_report.label = "search";
    backend = backend_name backend;
    search_seed = seed;
    budget;
    runs;
    seeded;
    space;
    certified = backend = Exhaust && runs = space && found = [];
    frontier;
    corpus_added = List.length (List.filter (fun f -> f.Sweep.fresh) found);
    corpus_dir = Option.value ~default:"" corpus_dir;
    findings = List.map finding_of_found found;
  }
