(* Shared vocabulary of the adversarial search: the candidate/outcome
   types, the (seed, index) -> rng derivation, the evaluation oracle
   and the dedup of findings.  Every backend resolves a violation
   (shrink, explain, persist) through [Sweep.resolve], as the chaos
   sweep does.  Backends implement [BACKEND]; smarter solvers slot in
   beside Mutate/Exhaust by implementing the same signature. *)

module Rng = Tussle_prelude.Rng
module Pool = Tussle_prelude.Pool
module Plan = Tussle_fault.Plan
module Scenario = Tussle_chaos.Scenario
module Invariant = Tussle_chaos.Invariant
module Signature = Tussle_chaos.Signature
module Corpus = Tussle_chaos.Corpus
module Sweep = Tussle_chaos.Sweep

type outcome = {
  backend : string;
  runs : int;
  seeded : int;
  space : int;  (* 0 for open-ended backends *)
  certified : bool;
  frontier : int list;  (* cumulative distinct signatures, per batch *)
  found : Sweep.found list;
}

(* Same derivation as the chaos sweep: everything a candidate does is
   a pure function of (master seed, global candidate index), which is
   what makes the search byte-identical across --domains. *)
let candidate_rng ~seed index = Rng.create (Rng.seed_at ~seed index)

(* The oracle: run the scenario under the plan and check the whole
   invariant registry; the signature is the coverage signal. *)
let evaluate (s : Scenario.t) ~seed plan =
  let obs = s.Scenario.run ~seed ~plan in
  (Invariant.check obs, Signature.of_obs obs)

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
