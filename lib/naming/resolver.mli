(** Name resolution, honest and otherwise (§IV-D, §VI-A).

    The paper lists "intentional perversion of DNS information" among
    the mechanisms parties use in tussle, and "kludges to the DNS"
    among the enhancements that erode transparency.  This module
    provides authoritative records, a caching resolver, and the
    resolver-operator policies actually seen in the wild:

    {ul
    {- [Honest]: answer from the authority, cache by TTL;}
    {- [Nxdomain_monetizing]: rewrite failures to the operator's ad
       server — lying about absence;}
    {- [Blocking of names]: deny resolution of the listed names —
       lying about presence;}
    {- [Redirecting of mapping]: steer listed names to an operator-
       chosen address (the "kludge" that CDNs and captive portals
       ride).}}

    The user's counter-mechanism is the paper's favourite: {e choice}
    of resolver. *)

type record = { name : string; address : int; ttl : float }

type authority = (string, record) Hashtbl.t
(** Authoritative zone data by name.  A resolver reads it at each
    authority query, so an edit reaches a resolver's answers once the
    cached answer for that name has expired. *)

val authority : record list -> authority
(** Zone data from records.  Later records shadow earlier ones with
    the same name. *)

type policy =
  | Honest
  | Nxdomain_monetizing of int  (** the ad server's address *)
  | Blocking of string list
  | Redirecting of (string * int) list

type t

val create : ?policy:policy -> authority -> t
(** A resolver over the authority (default [Honest]). *)

type answer =
  | Address of int
  | Nxdomain
  | Refused

val resolve : t -> now:float -> string -> answer
(** Resolve a name at time [now].  An answer is cached for its TTL
    (60 s for [Nxdomain]) and served from the cache until then, even
    if the authority changed meanwhile.  [now] drives cache expiry;
    calls must be made with non-decreasing [now]. *)

val truthful : t -> now:float -> string -> bool
(** Does this resolver's answer agree with the authority (including
    agreeing about absence)? *)

val truthfulness :
  t -> now:float -> names:string list -> float
(** Fraction of the given names answered truthfully. *)
