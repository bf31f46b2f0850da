(** Packets: the unit of carriage, carrying exactly the attributes the
    paper's tussles act on.

    A packet records who is speaking to whom ([src]/[dst]), what
    application it belongs to ([port] and [app] tag — the thing ISPs
    filter on), the QoS class requested (the paper's explicit-ToS-bits
    argument), whether the payload is end-to-end encrypted (the ultimate
    defence of transparency, §VI-A), and an optional loose source route
    (user-controlled provider selection, §V-A4).

    A packet is immutable: [Net] keeps its in-flight state apart, and
    the flight recorder its route. *)

type qos = Best_effort | Assured | Premium

type app =
  | Web
  | Mail
  | Voip
  | File_sharing
  | Game  (** an unproven "new application": the innovation canary *)
  | Attack  (** malicious traffic for the trust experiments *)

type t = {
  id : int;
  src : int;
  dst : int;
  size_bytes : int;
  port : int;
  app : app;
  qos : qos;
  encrypted : bool;
  tunneled : bool;  (** masked inside an innocuous envelope (port 443) *)
  source_route : int list;  (** user-selected waypoints; [] = provider routing *)
  created : float;
}

val make :
  ?port:int ->
  ?app:app ->
  ?qos:qos ->
  ?encrypted:bool ->
  ?tunneled:bool ->
  ?source_route:int list ->
  ?size_bytes:int ->
  id:int ->
  src:int ->
  dst:int ->
  created:float ->
  unit ->
  t
(** Build a packet.  Defaults: [app = Web], [qos = Best_effort], 1500
    bytes, plain (not encrypted, not tunneled), no source route, port
    chosen from the default port of [app]. *)

val default_port : app -> int
(** Well-known port for an application: the information a port-based
    filter keys on. *)

val visible_port : t -> int
(** The port an on-path observer sees: the real port for plain packets,
    443 for tunneled ones (§V-A2 tunneling disguises port numbers). *)

val visible_app : t -> app option
(** What an on-path observer can infer: [None] when the packet is
    encrypted or tunneled (peeking defeated), [Some app] otherwise. *)

val app_to_string : app -> string
