(** Network address translation: the household's counter-move (§I).

    "ISPs give their users a single IP address, and users attach a
    network of computers using address translation."  The NAT wins the
    addressing tussle for the user — n machines ride one subscription —
    and pays for it in transparency: unsolicited inbound traffic has no
    mapping and dies, which is exactly the erosion of "what goes in
    comes out" that §VI-A laments, felt hardest by new peer-to-peer
    applications that need to {e receive}.

    Model: private hosts share one public node id.  Outbound packets
    are rewritten to the public source with a fresh public port, and
    the (private host, private port) binding is remembered; inbound
    packets to the public address are translated back only when a
    binding (or an explicit port-forward) exists. *)

type t

val create : public:int -> privates:int list -> t
(** [create ~public ~privates]: the public node id the ISP sees, and
    the private hosts behind it.  Raises [Invalid_argument] on an empty
    household or a public id listed among the privates. *)

val public_address : t -> int

val translate_out : t -> Packet.t -> Packet.t
(** Rewrite an outbound packet (source must be one of the privates;
    raises otherwise): source becomes the public address, the source
    port is replaced by an allocated public port, and the binding is
    remembered.  The same (host, port) flow reuses its binding. *)

val translate_in : t -> Packet.t -> Packet.t option
(** Rewrite an inbound packet addressed to the public address: [Some]
    packet redirected to the mapped private host when the destination
    port matches a binding or a forward; [None] — dropped — otherwise.
    Raises if the packet is not addressed to the public address. *)

val add_port_forward : t -> public_port:int -> host:int -> port:int -> unit
(** The user's counter-counter-move: statically expose a private
    service.  Raises [Invalid_argument] if [host] is not private. *)

val visible_hosts : t -> int
(** What the ISP can count from the outside: always 1 — the point of
    the tussle. *)

val inbound_drops : t -> int
(** Unsolicited inbound packets refused so far: the transparency
    cost. *)
