(* E21 — Fault isolation when transparency fails (§VI-A): revealing vs
   covert devices. *)

module Table = Tussle_prelude.Table
module Engine = Tussle_netsim.Engine
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Middlebox = Tussle_netsim.Middlebox
module Net = Tussle_netsim.Net
module Traffic = Tussle_netsim.Traffic
module Diagnosis = Tussle_netsim.Diagnosis

let path = [ 0; 1; 2; 3; 4; 5 ]

let make_net regime =
  let net =
    Net.create (Topology.to_links (Topology.line 6)) Topology.line_forwarding
  in
  (match regime with
  | `Clean -> ()
  | `Revealing ->
    Net.add_middlebox net 3
      (Middlebox.port_filter ~reveals_presence:true ~blocked:[ 6881 ] ())
  | `Covert ->
    Net.add_middlebox net 3
      (Middlebox.port_filter ~reveals_presence:false ~blocked:[ 6881 ] ()));
  net

let diagnose regime =
  let net = make_net regime in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let make ~target =
    Packet.make ~id:(Traffic.fresh_id gen) ~app:Packet.File_sharing ~src:0
      ~dst:target ~created:(Engine.now engine) ()
  in
  let probe = Diagnosis.net_probe net engine ~make in
  Diagnosis.localize ~probe ~path

let run () =
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right ]
      [ "on-path device"; "diagnosis"; "probes" ]
  in
  let results =
    List.map
      (fun (name, regime) ->
        let r = diagnose regime in
        Table.add_row t
          [ name; Diagnosis.verdict_string r.Diagnosis.verdict;
            string_of_int r.Diagnosis.probes_used ];
        (regime, r))
      [
        ("none (transparent)", `Clean);
        ("filter that reveals its presence", `Revealing);
        ("covert filter", `Covert);
      ]
  in
  let get regime = List.assq regime results in
  let clean = get `Clean and revealing = get `Revealing and covert = get `Covert in
  let ok =
    clean.Diagnosis.verdict = Diagnosis.Clean
    && clean.Diagnosis.probes_used = 1
    (* the courteous device yields exact localization in one probe *)
    && (match revealing.Diagnosis.verdict with
       | Diagnosis.Blocked_at ("port-filter", 3) -> true
       | _ -> false)
    && revealing.Diagnosis.probes_used = 1
    (* the covert device costs more probes and yields only a bracket *)
    && (match covert.Diagnosis.verdict with
       | Diagnosis.Blocked_between (2, 3) -> true
       | _ -> false)
    && covert.Diagnosis.probes_used > revealing.Diagnosis.probes_used
  in
  (Table.render t, ok)

let experiment =
  {
    Experiment.id = "E21";
    title = "Fault isolation: courteous devices vs covert ones";
    paper_claim =
      "\"Failures of transparency will occur — design what happens then \
       ... Tools for fault isolation and error reporting would help ... \
       some devices that impair transparency may intentionally give no \
       error information or even reveal their presence, and that must \
       be taken into account in design of diagnostic tools\" — a \
       revealing device is localized exactly in one probe; a covert one \
       costs a probe sweep and is only ever bracketed.";
    run;
    sweep = None;
  }
