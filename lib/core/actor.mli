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
(** An actor holding its kind's default stance. *)

val utility : t -> Interest.stance -> float
(** [dot (stance actor) outcome]: how much the actor likes an
    outcome. *)

val pp : Format.formatter -> t -> unit
