type action = Forward | Drop | Degrade

type t = {
  name : string;
  reveals_presence : bool;
  policy : Packet.t -> action;
}

let name t = t.name

let reveals_presence t = t.reveals_presence

let decide t p = t.policy p

let make ?(reveals_presence = true) ~name policy =
  { name; reveals_presence; policy }

let port_filter ?reveals_presence ~blocked () =
  let policy p =
    if List.mem (Packet.visible_port p) blocked then Drop else Forward
  in
  make ?reveals_presence ~name:"port-filter" policy

let app_filter ~blocked =
  let policy p =
    match Packet.visible_app p with
    | Some app when List.mem app blocked -> Drop
    | Some _ | None -> Forward
  in
  make ~name:"app-filter" policy

let trust_firewall ~admits =
  let policy (p : Packet.t) =
    if admits ~src:p.Packet.src ~dst:p.Packet.dst then Forward else Drop
  in
  make ~name:"trust-firewall" policy

let qos_stripper ~honor =
  let policy (p : Packet.t) =
    match p.Packet.qos with
    | Packet.Best_effort -> Forward
    | Packet.Assured | Packet.Premium -> if honor p then Forward else Degrade
  in
  make ~name:"qos-stripper" policy
