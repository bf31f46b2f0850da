(** Provider-level source routing: the user controls the wide-area path.

    §V-A4: "The Internet should support a mechanism for choice such as
    source routing that would permit a customer to control the path of
    his packets at the level of providers", and "the design ... must
    incorporate a recognition of the need for payment" — ISPs refuse
    source-routed traffic they are not compensated for.

    Routes are expressed as loose waypoint lists (a transit AS to steer
    through) riding on the existing forwarding tables; refusal is a
    middlebox at the transit that drops uncompensated source-routed
    packets. *)

val waypoints_via : transit:int -> int list
(** Waypoint list steering a packet through the given transit AS. *)

val refusal_middlebox : paid:bool -> Tussle_netsim.Middlebox.t
(** Middlebox for a transit AS: when [paid] is false, drops any packet
    carrying a (non-empty) source route — "why should they be
    enthusiastic about this?".  When [paid], forwards everything. *)
