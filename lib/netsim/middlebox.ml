type action = Forward | Drop | Degrade

type t = {
  name : string;
  reveals_presence : bool;
  policy : Packet.t -> action;
  mutable inspected : int;
  mutable dropped : int;
}

let name t = t.name

let reveals_presence t = t.reveals_presence

let decide t p =
  t.inspected <- t.inspected + 1;
  let a = t.policy p in
  (match a with
  | Drop -> t.dropped <- t.dropped + 1
  | Degrade | Forward -> ());
  a

let inspected t = t.inspected

let dropped t = t.dropped

let make ?(reveals_presence = true) ~name policy =
  { name; reveals_presence; policy; inspected = 0; dropped = 0 }

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
