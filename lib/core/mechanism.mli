(** Mechanisms: the technical artifacts with which tussle is fought.

    "Different parties adapt a mix of mechanisms to try to achieve
    their conflicting goals, and others respond by adapting the
    mechanisms to push back" (§I).  A mechanism shifts the outcome
    stance of the system when active, can be deployed by particular
    stakeholder kinds, and may {e counter} other mechanisms (a tunnel
    neutralizes a port filter; encryption neutralizes inspection).

    Counter-resolution matters: a countered mechanism contributes no
    effect, and countering is itself counterable (DPI counters the
    plain tunnel, encryption counters DPI) — the escalation ladders of
    §V-A2 and §VI-A. *)

type t = {
  name : string;
  deployer : Actor.kind;
  effects : Interest.stance;  (** outcome shift while active *)
  counters : string list;  (** mechanisms this one neutralizes *)
  cost : float;  (** per-round cost to its deployer *)
}

val make :
  ?counters:string list ->
  ?cost:float ->
  name:string ->
  deployer:Actor.kind ->
  Interest.stance ->
  t

val active : t list -> t list
(** Resolve countering among deployed mechanisms to a fixpoint: a
    mechanism is inactive iff some {e active} mechanism counters it.
    Resolution processes counter-chains deterministically; mutual
    countering resolves in favour of the later deployment (the most
    recent move in the escalation wins). *)

val net_effect : t list -> Interest.stance
(** Combined outcome shift of the active subset. *)

val find : t list -> string -> t option

(** {2 Catalogue}

    The mechanisms named in the paper, with effects on the issue axes
    and the counter-relations the text describes. *)

val port_filter : t

val app_filter : t
(** DPI: sees through plain tunnels, not encryption. *)

val tunnel : t
val encryption : t

val catalogue : t list

val available_to : Actor.kind -> t list
(** Catalogue mechanisms this kind of actor can deploy. *)
