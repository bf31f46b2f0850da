(** Stakeholders of the Internet milieu (§I).

    "At a minimum these players include users ... commercial ISPs ...
    private sector network providers; governments ...; intellectual
    property rights holders ...; and providers of content and higher
    level services."  Each actor carries a stance over the issues. *)

type kind =
  | User
  | Isp
  | Private_network
  | Government
  | Rights_holder
  | Content_provider
  | Designer

val all_kinds : kind list

val kind_to_string : kind -> string

type t = {
  id : int;
  name : string;
  kind : kind;
  stance : Interest.stance;
}

val make : id:int -> name:string -> kind -> t
(** An actor holding its kind's {!default_stance}. *)

val default_stance : kind -> Interest.stance
(** The paper's sketch of each player's interests, as a stance vector
    (users value privacy/transparency/openness; ISPs revenue and
    control; governments control and accountability; rights holders
    control; content providers openness and revenue; designers
    innovation and openness). *)

val utility : t -> Interest.stance -> float
(** [dot (stance actor) outcome]: how much the actor likes an
    outcome. *)

val adverse : t -> t -> bool

val pp : Format.formatter -> t -> unit
