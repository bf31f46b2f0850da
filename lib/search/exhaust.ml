(* The bounded-exhaustive backend.

   A deliberately small plan grammar — per scenario link: Link_down,
   Link_loss p=0.2, Gray_loss p=0.5, Link_flap (period h/4, duty 0.5)
   and each Unidirectional_down direction; per scenario node: a
   Blackhole — all over four quantized windows (from in {0, h/2},
   duration in {h/2, h}) — closed under plans of at most two episodes
   (unordered pairs, so [a;b] and [b;a] are not enumerated twice).
   Enumerating the whole box and finding nothing is a *certificate*:
   no plan in this grammar violates any registered invariant, which is
   a stronger statement than any number of random draws.  Enumeration
   order is fixed (scenario order, then atom order), injection seeds
   derive from (seed, index), and batches are count-based, so output
   is byte-identical across --domains. *)

module Rng = Tussle_prelude.Rng
module Pool = Tussle_prelude.Pool
module Plan = Tussle_fault.Plan
module Scenario = Tussle_chaos.Scenario
module Corpus = Tussle_chaos.Corpus

let name = "exhaust"

let batch = 64

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

let plans s =
  let atoms = Array.of_list (atoms s) in
  let n = Array.length atoms in
  let singles = List.init n (fun i -> [ atoms.(i) ]) in
  let pairs =
    List.concat
      (List.init n (fun i ->
           List.init (n - i) (fun k -> [ atoms.(i); atoms.(i + k) ])))
  in
  [] :: (singles @ pairs)

let space scenarios =
  List.fold_left (fun acc s -> acc + List.length (plans s)) 0 scenarios

let search ?corpus_dir ?(seeds = []) ~scenarios ~seed ~budget () =
  ignore (seeds : Corpus.entry list);
  if budget < 1 then invalid_arg "Exhaust.search: budget must be >= 1";
  if scenarios = [] then invalid_arg "Exhaust.search: no scenarios";
  let all =
    List.concat_map (fun s -> List.map (fun p -> (s, p)) (plans s)) scenarios
  in
  let space = List.length all in
  let cands =
    List.filteri (fun i _ -> i < budget) all
    |> List.mapi (fun i (s, p) ->
           (s, p, Rng.int (Backend.candidate_rng ~seed i) 1_000_000))
  in
  let seen = Hashtbl.create 64 in
  let found = ref [] and frontier = ref [] and runs = ref 0 in
  let rec go = function
    | [] -> ()
    | cands ->
      let chunk = List.filteri (fun i _ -> i < batch) cands in
      let rest = List.filteri (fun i _ -> i >= batch) cands in
      let results =
        Pool.map
          (fun (s, plan, inj) -> Backend.evaluate s ~seed:inj plan)
          chunk
      in
      List.iter2
        (fun (s, plan, inj) (violations, sg) ->
          if not (Hashtbl.mem seen sg) then Hashtbl.add seen sg ();
          if violations <> [] then
            found :=
              Backend.resolve ?corpus_dir s ~seed:inj ~plan violations :: !found)
        chunk results;
      runs := !runs + List.length chunk;
      frontier := Hashtbl.length seen :: !frontier;
      go rest
  in
  go cands;
  let found = Backend.dedupe_found (List.rev !found) in
  {
    Backend.backend = name;
    runs = !runs;
    seeded = 0;
    space;
    certified = !runs = space && found = [];
    frontier = List.rev !frontier;
    found;
  }
