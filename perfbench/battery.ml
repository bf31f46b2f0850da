(* battery: one op is one pass of all 30 experiments, in the calling
   domain, as `tussle experiments --seq` runs them. *)

module Registry = Tussle_experiments.Registry
module Experiment = Tussle_experiments.Experiment

(* The layer each experiment's work lands in, for the traced run. *)
let span_of (e : Experiment.t) =
  match e.id with
  | "E1" | "E3" -> "econ.market"
  | "E17" -> "trust.traceback"
  | "E27" -> "netsim.transport"
  | _ -> "experiments.other"

let digest outcomes =
  Digest.string
    (String.concat "" (List.map (fun o -> o.Experiment.output) outcomes))

(* Every pass must hold and print exactly what the run's first timed
   pass printed. *)
let check reference outcomes =
  let d = digest outcomes in
  if Option.is_none !reference then reference := Some d;
  match List.find_opt (fun o -> not (Experiment.held o)) outcomes with
  | Some o -> Error (o.Experiment.exp_id ^ " did not hold")
  | None ->
    if Option.equal Digest.equal (Some d) !reference then Ok ()
    else Error "pass output differs from the first pass"

(* The battery's input is the registry itself, run at the default
   fault seed exactly as `tussle experiments --seq` runs it; the seed
   does not change it. *)
let setup ~seed:_ ~plant:_ =
  let exps = Registry.all in
  (* Warm-up: one pass of the experiments outside the three named
     layers, about a tenth of a pass; the first timed pass warms the
     rest. *)
  ignore
    (Registry.run_list ~domains:1
       (List.filter (fun e -> span_of e = "experiments.other") exps));
  let reference = ref None in
  let op _ = check reference (Registry.run_list ~domains:1 exps) in
  let traced_op sp ~op _ =
    List.concat_map
      (fun e ->
        let name = span_of e in
        let w0 = Workload.words () in
        let o = Spans.span sp ~op name (fun () -> Registry.run_list ~domains:1 [ e ]) in
        Spans.count sp (name ^ ".alloc") (Workload.words () -. w0);
        o)
      exps
    |> check reference
  in
  let per_layer sp ~ops =
    let s name = Workload.per (Spans.total sp name) ops in
    let mb name =
      Workload.word_mb *. Workload.per (Spans.count_total sp (name ^ ".alloc")) ops
    in
    [
      ("econ.market.s", s "econ.market");
      ("econ.market.alloc_mb", mb "econ.market");
      ("trust.traceback.s", s "trust.traceback");
      ("trust.traceback.alloc_mb", mb "trust.traceback");
      ("netsim.transport.s", s "netsim.transport");
      ("experiments.other.s", s "experiments.other");
    ]
  in
  { Workload.cycle = 1; op; traced_op; per_layer }

let workload = { Workload.name = "battery"; reference = Compute; setup }
