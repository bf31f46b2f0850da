(** A firewall control protocol: who sets the rules, and can you read
    them?  (§V-B.)

    "Who gets to set the policy in the firewall?  The end user may
    certainly have opinions, but a network administrator may as well.
    Who is 'in charge'?  There is no single answer, and we better not
    think we are going to design it.  All we can design is the space
    for the tussle."  And on visibility: "should that end user be able
    to download and examine these rules?  One way to help preserve the
    end-to-end character of the Internet is to require that devices
    reveal if they impose limitations on it."

    This module is that designed space: a rule table with two
    authorities.  Admins rule the whole selector space; an end node may
    request rules only over its {e own} traffic (MIDCOM-style
    pinholes).  Whether user rules can override admin rules, and
    whether admin rules are visible to the users they constrain, are
    configuration — the tussle knobs — not hard-coded outcomes. *)

type authority = Admin | End_user of int  (** the node the user owns *)

type selector = {
  sel_src : int option;  (** [None] = any *)
  sel_dst : int option;
  sel_port : int option;
}

type rule = {
  rule_id : int;
  issued_by : authority;
  allow : bool;
  selector : selector;
  visible_to_subjects : bool;
      (** may constrained users enumerate this rule? *)
}

type t

val create : ?users_may_override:bool -> unit -> t
(** Empty table: a transparent network until someone constrains it.
    [users_may_override] (default false: the admin wins conflicts). *)

val any : selector
(** Matches everything. *)

val add_rule :
  t -> authority -> allow:bool -> ?visible:bool -> selector ->
  (int, [ `Beyond_authority ]) result
(** Install a rule; returns its id.  An [End_user u] may only install
    rules whose selector pins [sel_src] or [sel_dst] to [u] —
    requesting control over other people's traffic is
    [`Beyond_authority].  [visible] defaults to [true]. *)

val permits : t -> Tussle_netsim.Packet.t -> bool
(** Decision: among matching rules, the winning authority's most
    recent rule applies (admin over user unless [users_may_override]);
    with no matching rule, allow. *)

val middlebox : t -> Tussle_netsim.Middlebox.t
(** Enforcement point dropping what {!permits} denies.  The middlebox
    reveals its presence iff every currently installed rule is
    visible. *)

val rules_constraining : t -> user:int -> rule list
(** All deny rules that match some traffic of [user] (as source or
    destination). *)

val visible_rules : t -> user:int -> rule list
(** The subset of {!rules_constraining} the user is allowed to read. *)

val rule_transparency : t -> user:int -> float
(** |visible| / |constraining|; 1.0 when nothing constrains the user.
    The paper's courtesy metric: "it becomes a courtesy, not a real
    requirement." *)
