type binding = { host : int; port : int }

type t = {
  public : int;
  privates : (int, unit) Hashtbl.t;
  (* public port -> private binding *)
  inbound : (int, binding) Hashtbl.t;
  (* (private host, private port) -> public port *)
  outbound : (int * int, int) Hashtbl.t;
  mutable next_port : int;
  mutable drops : int;
}

let create ~public ~privates =
  if privates = [] then invalid_arg "Nat.create: empty household";
  if List.mem public privates then
    invalid_arg "Nat.create: public id among privates";
  let tbl = Hashtbl.create 8 in
  List.iter (fun h -> Hashtbl.replace tbl h ()) privates;
  {
    public;
    privates = tbl;
    inbound = Hashtbl.create 32;
    outbound = Hashtbl.create 32;
    next_port = 49152;
    drops = 0;
  }

let public_address t = t.public

let is_private t h = Hashtbl.mem t.privates h

let fresh_port t =
  let p = t.next_port in
  t.next_port <- p + 1;
  p

let translate_out t (p : Packet.t) =
  if not (is_private t p.Packet.src) then
    invalid_arg "Nat.translate_out: source not behind this NAT";
  let key = (p.Packet.src, p.Packet.port) in
  let public_port =
    match Hashtbl.find_opt t.outbound key with
    | Some port -> port
    | None ->
      let port = fresh_port t in
      Hashtbl.replace t.outbound key port;
      Hashtbl.replace t.inbound port { host = p.Packet.src; port = p.Packet.port };
      port
  in
  Packet.make ~port:public_port ~app:p.Packet.app ~qos:p.Packet.qos
    ~encrypted:p.Packet.encrypted ~tunneled:p.Packet.tunneled
    ~source_route:p.Packet.source_route ~size_bytes:p.Packet.size_bytes
    ~id:p.Packet.id ~src:t.public ~dst:p.Packet.dst ~created:p.Packet.created ()

let translate_in t (p : Packet.t) =
  if p.Packet.dst <> t.public then
    invalid_arg "Nat.translate_in: not addressed to this NAT";
  match Hashtbl.find_opt t.inbound p.Packet.port with
  | Some { host; port } ->
    Some
      (Packet.make ~port ~app:p.Packet.app ~qos:p.Packet.qos
         ~encrypted:p.Packet.encrypted ~tunneled:p.Packet.tunneled
         ~size_bytes:p.Packet.size_bytes ~id:p.Packet.id ~src:p.Packet.src
         ~dst:host ~created:p.Packet.created ())
  | None ->
    t.drops <- t.drops + 1;
    None

let add_port_forward t ~public_port ~host ~port =
  if not (is_private t host) then
    invalid_arg "Nat.add_port_forward: host not behind this NAT";
  Hashtbl.replace t.inbound public_port { host; port }

let visible_hosts _t = 1

let inbound_drops t = t.drops
