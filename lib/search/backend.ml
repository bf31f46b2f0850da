(* Shared vocabulary of the adversarial search: the candidate/outcome
   types, the (seed, index) -> rng derivation, the evaluation oracle,
   and the violation-resolution pipeline (shrink, then persist) that
   every backend funnels its findings through.  Backends implement
   [BACKEND]; smarter solvers slot in beside Mutate/Exhaust by
   implementing the same signature. *)

module Rng = Tussle_prelude.Rng
module Pool = Tussle_prelude.Pool
module Plan = Tussle_fault.Plan
module Scenario = Tussle_chaos.Scenario
module Invariant = Tussle_chaos.Invariant
module Signature = Tussle_chaos.Signature
module Corpus = Tussle_chaos.Corpus
module Shrink = Tussle_chaos.Shrink
module Sweep = Tussle_chaos.Sweep

type found = {
  scenario : string;
  seed : int;  (* injection seed the violation reproduces with *)
  plan : Plan.t;  (* as found *)
  minimal : Plan.t;  (* 1-minimal, via the chaos delta-debugger *)
  violations : Invariant.violation list;
  file : string option;  (* corpus path, when persistence is on *)
  fresh : bool;  (* the corpus file was newly created, not a dedup hit *)
}

type outcome = {
  backend : string;
  runs : int;
  seeded : int;
  space : int;  (* 0 for open-ended backends *)
  certified : bool;
  frontier : int list;  (* cumulative distinct signatures, per batch *)
  found : found list;
}

(* Same derivation as the chaos sweep: everything a candidate does is
   a pure function of (master seed, global candidate index), which is
   what makes the search byte-identical across --domains. *)
let candidate_rng ~seed index = Rng.create (seed + (7919 * (index + 1)))

(* The oracle: run the scenario under the plan and check the whole
   invariant registry; the signature is the coverage signal. *)
let evaluate (s : Scenario.t) ~seed plan =
  let obs = s.Scenario.run ~seed ~plan in
  (Invariant.check obs, Signature.of_obs obs)

(* A violating plan is worth keeping only in its 1-minimal form; the
   corpus dedupes by (scenario, plan text) so a re-found violation
   points at the existing file instead of creating a second one. *)
let resolve ?corpus_dir (s : Scenario.t) ~seed ~plan violations =
  let minimal = Shrink.shrink ~still_fails:(Sweep.still_fails s ~seed) plan in
  let file, fresh =
    match corpus_dir with
    | None -> (None, false)
    | Some dir ->
      let entry = { Corpus.scenario = s.Scenario.name; seed; plan = minimal } in
      (match Corpus.find_duplicate ~dir entry with
      | Some path -> (Some path, false)
      | None -> (Some (Corpus.save ~dir entry), true))
  in
  { scenario = s.Scenario.name; seed; plan; minimal; violations; file; fresh }

(* Distinct reproducers only: different found plans can shrink to the
   same 1-minimal plan, and the report should list that bug once. *)
let dedupe_found fs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun f ->
      let key = (f.scenario, Plan.to_string f.minimal) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    fs

module type BACKEND = sig
  val name : string

  val search :
    ?corpus_dir:string ->
    ?seeds:Corpus.entry list ->
    scenarios:Scenario.t list ->
    seed:int ->
    budget:int ->
    unit ->
    outcome
  (* Evaluate up to [budget] plans against [scenarios], deriving all
     randomness from [(seed, index)].  [seeds] primes backends that
     use a corpus (an entry that does not {!Scenario.fits} its
     scenario is skipped); [corpus_dir] enables persistence of new 1-minimal
     reproducers.  Raises [Invalid_argument] on [budget < 1] or an
     empty scenario list. *)
end
