(** Middleboxes: in-network control points where tussle is exercised.

    A middlebox inspects packets transiting its node and decides their
    fate.  Crucially for the paper's argument (§VI-A), a middlebox sees
    only what the packet *exposes*: an encrypted or tunneled packet hides
    its application, so application filters silently fail against it —
    "peeking is irresistible [...] the ultimate defense is end-to-end
    encryption."

    The [reveals_presence] flag models the paper's visibility principle:
    a courteous device announces that it imposed a limitation (so faults
    can be isolated and tussles can be managed); a covert one does not. *)

type action =
  | Forward  (** pass unchanged *)
  | Drop  (** discard (filtering, firewalling) *)
  | Degrade  (** strip QoS to best-effort (closed QoS deployment) *)

type t

val name : t -> string

val reveals_presence : t -> bool

val decide : t -> Packet.t -> action
(** Apply the policy. *)

val make :
  ?reveals_presence:bool -> name:string -> (Packet.t -> action) -> t
(** General middlebox from a decision function (default: reveals
    presence). *)

val port_filter : ?reveals_presence:bool -> blocked:int list -> unit -> t
(** Drop packets whose {e visible} port is blocked.  Tunneling defeats
    it. *)

val app_filter : blocked:Packet.app list -> t
(** Drop packets whose {e visible} application is blocked.  Encryption
    and tunneling defeat it.  Reveals its presence. *)

val trust_firewall : admits:(src:int -> dst:int -> bool) -> t
(** The paper's "trust-aware firewall": admits or refuses based on {e who
    is communicating} rather than what protocol is visible, so it is
    immune to port games and does not collateral-damage new
    applications.  Reveals its presence. *)

val qos_stripper : honor:(Packet.t -> bool) -> t
(** Degrades QoS on packets the operator chooses not to honor — the
    closed-QoS behaviour of §VII ("only turn them on for applications
    that they sell").  Reveals its presence. *)
