(** Policy evaluation: compliance checking with delegation chains.

    A request asks: may [subject] perform [action] on [resource], given
    attribute bindings?  The decision procedure is KeyNote-flavoured:

    {ol
    {- An assertion is {e rooted} when its issuer is the trust root, or
       the issuer was itself granted a matching, {e delegable}, rooted
       [Allow] for that action/resource (chains of any depth; cycles are
       handled).}
    {- If any rooted [Deny] matches the request, the answer is
       [Denied] (deny overrides).}
    {- Otherwise, if any rooted [Allow] matches, the answer is
       [Allowed].}
    {- Otherwise [Not_applicable] — the default-deny posture of a
       "that which is not permitted is forbidden" network, distinguishable
       from an explicit denial so callers can tell silence from refusal.}}

    Conditions evaluate in a request environment; a missing attribute
    makes the condition false (fail-closed), never an error. *)

type decision = Allowed | Denied | Not_applicable

type request = {
  subject : string;
  action : string;
  resource : string;
  attributes : (string * Ast.value) list;
}

val eval_expr : (string * Ast.value) list -> Ast.expr -> bool
(** Evaluate a condition in an environment.  Comparisons between
    incompatible types and lookups of absent attributes are false. *)

val decide : root:string -> Ast.policy -> request -> decision

val decision_to_string : decision -> string

val request_of_strings : string -> string list -> request option
(** [request_of_strings "subject:action:resource" bindings], as
    [tussle policy] takes a request: [None] unless the first string has
    exactly three [':']-separated parts.  Each [name=value] binding is
    an attribute, an [Int] when [value] is an integer and a [Str]
    otherwise; a binding without ['='] is ignored. *)
