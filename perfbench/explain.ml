(* explain: what `tussle explain --json` does with a corpus entry —
   replay it with the flight recorder on, emit the flow-trace artifact,
   then parse it back and validate it.  One op explains one entry of
   each scenario, as the committed corpus holds one reproducer per
   scenario: a single entry's cost depends mostly on its scenario, so
   percentiles over single entries would only say which scenario sits
   at the cut. *)

module Rng = Tussle_prelude.Rng
module Plan = Tussle_fault.Plan
module Scenario = Tussle_chaos.Scenario
module Corpus = Tussle_chaos.Corpus
module Explain = Tussle_chaos.Explain
module Json = Tussle_obs.Json

let scenarios = Array.of_list Scenario.all

(* Ops per cycle. *)
let cycle = 40

(* Extended-grammar plans drawn with [Plan.random] like the chaos
   sweep's, except that the episode count (1 to 4) is stratified rather
   than drawn, so every cycle holds the same number of plans of each
   size for each scenario and a cycle's cost varies less from seed to
   seed.  With [plant] > 0, the first entry of every [plant]-th op names
   a scenario that does not exist. *)
let ops ~seed ~plant =
  let rng = Rng.create seed in
  Array.init cycle (fun i ->
      Array.mapi
        (fun k (s : Scenario.t) ->
          let episodes = 1 + (i mod 4) in
          let plan = Plan.random rng ~links:s.links ~horizon:s.horizon ~episodes in
          let seed = Rng.int rng 1_000_000 in
          let scenario =
            if plant > 0 && (i + 1) mod plant = 0 && k = 0 then "no-such-scenario"
            else s.name
          in
          { Corpus.scenario; seed; plan })
        scenarios)

let ( let* ) = Result.bind

(* The four steps, each wrapped by [step] (a span in the traced run). *)
let explain (p : Workload.probe) (e : Corpus.entry) =
  let* r = p.step "chaos.explain_run" (fun () -> Explain.run e) in
  p.count "events" (float_of_int (List.length r.Explain.events));
  p.count "overwritten" (float_of_int r.overwritten);
  let text =
    p.step "obs.json.emit" (fun () -> Json.to_string (Explain.to_json r))
  in
  p.count "bytes" (float_of_int (String.length text));
  let* json = p.step "obs.json.parse" (fun () -> Json.parse text) in
  let* () = p.step "obs.json.validate" (fun () -> Explain.validate_json json) in
  if r.overwritten = 0 then Ok ()
  else Error (Printf.sprintf "%d flight events overwritten" r.overwritten)

(* Every entry is explained even after one fails. *)
let explain_all p entries =
  Array.fold_left
    (fun acc e ->
      let r = explain p e in
      match acc with Error _ -> acc | Ok () -> r)
    (Ok ()) entries

let setup ~seed ~plant =
  let ops = ops ~seed ~plant in
  let op i = explain_all Workload.untraced ops.(i) in
  (* Warm-up: one op, which also allocates the flight recorder's ring. *)
  ignore (op 0);
  let traced_op sp ~op i = explain_all (Workload.traced sp ~op) ops.(i) in
  let per_layer sp ~ops =
    let ms name = Workload.ms (Spans.mean sp name) in
    let c name = Workload.per (Spans.count_total sp name) ops in
    [
      ("chaos.explain_run.ms", ms "chaos.explain_run");
      ("obs.flight.events_per_op", c "events");
      ("obs.flight.overwritten", Spans.count_total sp "overwritten");
      ("obs.json.emit_ms", ms "obs.json.emit");
      ("obs.json.parse_ms", ms "obs.json.parse");
      ("obs.json.validate_ms", ms "obs.json.validate");
      ("obs.json.kb_per_op", c "bytes" /. 1024.);
    ]
  in
  { Workload.cycle; op; traced_op; per_layer }

let workload = { Workload.name = "explain"; reference = Cache; setup }
