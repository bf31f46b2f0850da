(* E9 — End-to-end encryption vs peeking, and the escalation that
   follows (§VI-A).

   Part 1: packets cross an inspecting middlebox; as encryption adoption
   rises, the fraction of traffic the observer can classify falls to
   zero — "peeking is irresistible ... the ultimate defense of the
   end-to-end mode is end-to-end encryption."

   Part 2: the provider's counter-move (refuse or surcharge encrypted
   traffic) is priced under competition and under monopoly. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Table = Tussle_prelude.Table
module Engine = Tussle_netsim.Engine
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Middlebox = Tussle_netsim.Middlebox
module Net = Tussle_netsim.Net
module Traffic = Tussle_netsim.Traffic
module Linkstate = Tussle_routing.Linkstate
module Escalation = Tussle_econ.Escalation

let classify_run ~adoption =
  let rng = Rng.create 1009 in
  let g = Topology.line 5 in
  let ls = Linkstate.compute g ~metric:`Hops in
  let net = Net.create (Topology.to_links g) (Linkstate.forwarding ls) in
  (* an observer in the middle tries to read application identity *)
  let readable = ref 0 and inspected = ref 0 in
  let observer =
    Middlebox.make ~reveals_presence:false ~name:"observer" (fun p ->
        incr inspected;
        (match Packet.visible_app p with
        | Some _ -> incr readable
        | None -> ());
        Middlebox.Forward)
  in
  Net.add_middlebox net 2 observer;
  let engine = Engine.create () in
  (* the split keeps [rng]'s later draws where they were *)
  ignore (Rng.split rng);
  let gen = Traffic.create () in
  let apps = [| Packet.Web; Packet.Mail; Packet.Voip; Packet.File_sharing |] in
  Traffic.constant_flow gen engine net ~start:0.0 ~interval:0.001 ~count:400
    ~make:(fun gen ~created ->
      let encrypted = Rng.bernoulli rng adoption in
      Packet.make ~id:(Traffic.fresh_id gen) ~app:(Rng.choice rng apps)
        ~encrypted ~src:0 ~dst:4 ~created ());
  Engine.run engine;
  ( float_of_int !readable /. float_of_int !inspected,
    Net.delivery_ratio net )

let part1 () =
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Right; Table.Right ]
      [ "encryption adoption"; "traffic classifiable"; "delivery" ]
  in
  let readable_at =
    List.map
      (fun adoption ->
        let readable, delivery = classify_run ~adoption in
        Table.add_row t
          [ Table.fmt_pct adoption; Table.fmt_pct readable;
            Table.fmt_pct delivery ];
        readable)
      [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  in
  let first = List.hd readable_at
  and last = List.nth readable_at (List.length readable_at - 1) in
  (Table.render t, first > 0.99 && last < 0.01)

let part2 () =
  let base competitive =
    {
      Escalation.n_users = 1000.0;
      enc_fraction = 0.3;
      base_price = 5.0;
      service_value = 8.0;
      privacy_value = 2.0;
      inspection_value = 1.0;
      competitive;
    }
  in
  let grid = [ 0.5; 1.0; 1.5; 2.0; 3.0 ] in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Left ]
      [ "market"; "ISP best response"; "ISP profit"; "encryption survives?" ]
  in
  let describe = function
    | Escalation.Carry -> "carry encrypted traffic"
    | Escalation.Refuse -> "refuse encrypted traffic"
    | Escalation.Surcharge s -> Printf.sprintf "surcharge %.1f" s
  in
  let row name p =
    let policy, profit = Escalation.best_policy p ~surcharge_grid:grid in
    let survives = Escalation.encryption_survives p ~surcharge_grid:grid in
    Table.add_row t
      [ name; describe policy; Printf.sprintf "%.0f" profit;
        (if survives then "yes" else "no") ];
    (policy, survives)
  in
  let comp_policy, comp_survives = row "competitive" (base true) in
  let mono_policy, mono_survives = row "monopoly" (base false) in
  let _, cheap_survives =
    row "monopoly, privacy barely valued"
      { (base false) with Escalation.privacy_value = 0.2 }
  in
  let ok =
    comp_policy = Escalation.Carry && comp_survives
    && mono_policy <> Escalation.Carry && mono_survives
    && not cheap_survives
  in
  (Table.render t, ok)

let run () =
  let t1, ok1 = part1 () in
  let t2, ok2 = part2 () in
  (t1 ^ "\n" ^ t2, ok1 && ok2)

let experiment =
  {
    Experiment.id = "E9";
    title = "Encryption defeats peeking; competition disciplines the backlash";
    paper_claim =
      "\"If there is information visible in the packet, there is no way \
       to keep an intermediate node from looking at it.  So the ultimate \
       defense of the end-to-end mode is end-to-end encryption ... In \
       the U.S., competition would probably discipline a provider that \
       tried to block encryption.  But a conservative government with a \
       state-run monopoly ISP might.\"";
    run;
    sweep = None;
  }
