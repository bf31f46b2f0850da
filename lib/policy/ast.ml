type value = Int of int | Str of string | Bool of bool

type binop = Eq | Neq | Lt | Le | Gt | Ge

type expr =
  | Attr of string
  | Const of value
  | Cmp of binop * expr * expr
  | And of expr * expr
  | Or of expr * expr
  | Not of expr

type effect = Allow | Deny

type assertion = {
  issuer : string;
  effect : effect;
  subject : string;
  action : string;
  resource : string;
  condition : expr option;
  delegable : bool;
}

type policy = assertion list

let value_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Bool x, Bool y -> x = y
  | (Int _ | Str _ | Bool _), _ -> false

let pp_value ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.fprintf ppf "%b" b

let binop_to_string = function
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_expr ppf = function
  | Attr a -> Format.fprintf ppf "%s" a
  | Const v -> pp_value ppf v
  | Cmp (op, l, r) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr l (binop_to_string op) pp_expr r
  | And (l, r) -> Format.fprintf ppf "(%a and %a)" pp_expr l pp_expr r
  | Or (l, r) -> Format.fprintf ppf "(%a or %a)" pp_expr l pp_expr r
  | Not e -> Format.fprintf ppf "(not %a)" pp_expr e

let pp_assertion ppf a =
  Format.fprintf ppf "%s says %s %s %s on %s" a.issuer
    (match a.effect with Allow -> "allow" | Deny -> "deny")
    a.subject a.action a.resource;
  (match a.condition with
  | Some c -> Format.fprintf ppf " where %a" pp_expr c
  | None -> ());
  if a.delegable then Format.fprintf ppf " delegable";
  Format.fprintf ppf "."
