(** Abstract syntax of the tussle policy language.

    The language is a small KeyNote/PolicyMaker-style trust-management
    assertion language (§II-B): principals issue signed-by-construction
    assertions that allow or deny other principals actions on resources,
    optionally under attribute conditions, optionally delegable.

    Concrete syntax (one assertion per statement):
    {v
      alice says allow bob send on mailserver where port == 25 and size < 1000.
      root says allow isp1 connect on "*" delegable.
      root says deny eve "*" on "*".
    v} *)

type value = Int of int | Str of string | Bool of bool

type binop = Eq | Neq | Lt | Le | Gt | Ge

type expr =
  | Attr of string  (** attribute looked up in the request environment *)
  | Const of value
  | Cmp of binop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

type effect = Allow | Deny

type assertion = {
  issuer : string;
  effect : effect;
  subject : string;  (** ["*"] matches any principal *)
  action : string;  (** ["*"] matches any action *)
  resource : string;  (** ["*"] matches any resource *)
  condition : expr option;
  delegable : bool;
}

type policy = assertion list

val value_equal : value -> value -> bool

val pp_expr : Format.formatter -> expr -> unit

val pp_assertion : Format.formatter -> assertion -> unit
