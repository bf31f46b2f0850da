(* E16 — The value-flow protocol in action (§IV-C): compensation flows
   hop-by-hop with the data, escrow refunds failures, and bilateral
   settlement nets the books — with conservation checked throughout. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Table = Tussle_prelude.Table
module Engine = Tussle_netsim.Engine
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Net = Tussle_netsim.Net
module Traffic = Tussle_netsim.Traffic
module Pathvector = Tussle_routing.Pathvector
module Payment = Tussle_econ.Payment

let carriage_price = 0.25

let run () =
  let rng = Rng.create 1016 in
  let tt =
    Topology.two_tier rng ~transits:3 ~accesses:4 ~hosts_per_access:2
      ~multihoming:2
  in
  let pv = Pathvector.compute tt.Topology.graph in
  let plain = Graph.map_edges tt.Topology.graph (fun (e, _) -> e) in
  let net = Net.create (Topology.to_links plain) (Pathvector.forwarding pv) in
  let n_nodes = Graph.node_count plain in
  let ledger = Payment.create ~parties:n_nodes ~initial:10.0 in
  let supply0 = Payment.total_supply ledger in
  let engine = Engine.create () in
  (* the split keeps [rng]'s later draws where they were *)
  ignore (Rng.split rng);
  let gen = Traffic.create () in
  let hosts = Array.of_list tt.Topology.hosts in
  let n = Array.length hosts in
  (* every host escrows payment for carriage along its chosen path, then
     sends; on delivery the escrow is captured to the on-path providers,
     on loss it is refunded *)
  let escrows = Hashtbl.create 16 in
  let sent = ref 0 and paid_ok = ref 0 and refunded = ref 0 in
  for i = 0 to n - 1 do
    let src = hosts.(i) and dst = hosts.((i + 3) mod n) in
    if src <> dst then begin
      match Pathvector.as_path pv ~src ~dst with
      | None -> ()
      | Some path ->
        let providers = List.filter (fun hop -> hop <> dst) path in
        let hops = List.map (fun p -> (p, carriage_price)) providers in
        (match Payment.authorize ledger ~payer:src ~hops with
        | Error (`Insufficient _) -> ()
        | Ok escrow ->
          incr sent;
          let p =
            Packet.make ~id:(Traffic.fresh_id gen) ~src ~dst ~created:0.0 ()
          in
          Hashtbl.replace escrows p.Packet.id escrow;
          Net.inject net engine p)
    end
  done;
  (* settle each escrow as its packet completes; every [authorize]
     above has already run *)
  Net.on_complete net (fun p outcome ->
      match Hashtbl.find_opt escrows p.Packet.id with
      | None -> ()
      | Some escrow -> begin
        match outcome with
        | Net.Delivered _ ->
          ignore (Payment.capture ledger escrow);
          incr paid_ok
        | Net.Lost _ ->
          Payment.refund ledger escrow;
          incr refunded
      end);
  Engine.run engine;
  let supply1 = Payment.total_supply ledger in
  let transfers = Payment.log ledger in
  let settlements = Payment.settle_bilateral ledger in
  let provider_earnings node = Payment.balance ledger node -. 10.0 in
  let transit_earned =
    List.fold_left (fun acc tr -> acc +. provider_earnings tr) 0.0
      tt.Topology.transits
  in
  let access_earned =
    List.fold_left (fun acc a -> acc +. provider_earnings a) 0.0
      tt.Topology.accesses
  in
  let t =
    Table.create ~aligns:[ Table.Left; Table.Right ] [ "value-flow ledger"; "" ]
  in
  Table.add_row t [ "packets sent (escrowed)"; string_of_int !sent ];
  Table.add_row t [ "delivered -> captured"; string_of_int !paid_ok ];
  Table.add_row t [ "lost -> refunded"; string_of_int !refunded ];
  Table.add_row t [ "hop transfers recorded"; string_of_int (List.length transfers) ];
  Table.add_row t
    [ "bilateral settlements"; string_of_int (List.length settlements) ];
  Table.add_row t [ "transit ISPs earned"; Printf.sprintf "%.2f" transit_earned ];
  Table.add_row t [ "access ISPs earned"; Printf.sprintf "%.2f" access_earned ];
  Table.add_row t
    [ "money conserved";
      (if Float.abs (supply1 -. supply0) < 1e-9 then "yes" else "NO") ];
  let ok =
    !sent > 0
    && !paid_ok = !sent (* this topology delivers everything *)
    && !refunded = 0
    && transfers <> []
    && List.length settlements <= List.length transfers
    && transit_earned > 0.0
    && access_earned > 0.0
    && Float.abs (supply1 -. supply0) < 1e-9
  in
  (Table.render t, ok)

let experiment =
  {
    Experiment.id = "E16";
    title = "A value-flow protocol: compensation moves with the data";
    paper_claim =
      "\"Whatever the compensation, recognize that it must flow, just as \
       much as data must flow.  Sometimes this happens outside the \
       system, sometimes within a protocol.  If this 'value flow' \
       requires a protocol, design it\" — escrowed per-hop carriage \
       payments captured on delivery and refunded on loss, with every \
       exchange of value visible in the ledger and bilateral settlement \
       netting the books.";
    run;
    sweep = None;
  }
