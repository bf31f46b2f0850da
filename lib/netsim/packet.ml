type qos = Best_effort | Assured | Premium

type app = Web | Mail | Voip | File_sharing | Game | Attack

type t = {
  id : int;
  src : int;
  dst : int;
  size_bytes : int;
  port : int;
  app : app;
  qos : qos;
  encrypted : bool;
  tunneled : bool;
  source_route : int list;
  created : float;
}

let default_port = function
  | Web -> 80
  | Mail -> 25
  | Voip -> 5060
  | File_sharing -> 6881
  | Game -> 27015
  | Attack -> 445

let make ?port ?(app = Web) ?(qos = Best_effort) ?(encrypted = false)
    ?(tunneled = false) ?(source_route = []) ?(size_bytes = 1500) ~id ~src
    ~dst ~created () =
  let port = Option.value ~default:(default_port app) port in
  if size_bytes <= 0 then invalid_arg "Packet.make: non-positive size";
  {
    id;
    src;
    dst;
    size_bytes;
    port;
    app;
    qos;
    encrypted;
    tunneled;
    source_route;
    created;
  }

let visible_port p = if p.tunneled then 443 else p.port

let visible_app p = if p.encrypted || p.tunneled then None else Some p.app

let app_to_string = function
  | Web -> "web"
  | Mail -> "mail"
  | Voip -> "voip"
  | File_sharing -> "file-sharing"
  | Game -> "game"
  | Attack -> "attack"
