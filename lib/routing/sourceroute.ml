module Middlebox = Tussle_netsim.Middlebox
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology

let waypoints_via ~transit = [ transit ]

let refusal_middlebox ~paid =
  let policy (p : Packet.t) =
    if (not paid) && p.Packet.source_route <> [] then Middlebox.Drop
    else Middlebox.Forward
  in
  Middlebox.make ~reveals_presence:false ~name:"source-route-refusal" policy
