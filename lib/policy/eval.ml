type decision = Allowed | Denied | Not_applicable

type request = {
  subject : string;
  action : string;
  resource : string;
  attributes : (string * Ast.value) list;
}

let lookup env a = List.assoc_opt a env

let rec eval_value env = function
  | Ast.Attr a -> lookup env a
  | Ast.Const v -> Some v
  | Ast.Cmp _ | Ast.And _ | Ast.Or _ | Ast.Not _ as e ->
    Some (Ast.Bool (eval_bool env e))

and eval_bool env = function
  | Ast.Const (Ast.Bool b) -> b
  | Ast.Const (Ast.Int _ | Ast.Str _) -> false
  | Ast.Attr a -> begin
    match lookup env a with Some (Ast.Bool b) -> b | Some _ | None -> false
  end
  | Ast.And (l, r) -> eval_bool env l && eval_bool env r
  | Ast.Or (l, r) -> eval_bool env l || eval_bool env r
  | Ast.Not e -> not (eval_bool env e)
  | Ast.Cmp (op, l, r) -> begin
    match (eval_value env l, eval_value env r) with
    | Some lv, Some rv -> compare_values op lv rv
    | _, _ -> false
  end

and compare_values op lv rv =
  match (op, lv, rv) with
  | Ast.Eq, _, _ -> Ast.value_equal lv rv
  | Ast.Neq, _, _ -> not (Ast.value_equal lv rv)
  | Ast.Lt, Ast.Int a, Ast.Int b -> a < b
  | Ast.Le, Ast.Int a, Ast.Int b -> a <= b
  | Ast.Gt, Ast.Int a, Ast.Int b -> a > b
  | Ast.Ge, Ast.Int a, Ast.Int b -> a >= b
  | Ast.Lt, Ast.Str a, Ast.Str b -> String.compare a b < 0
  | Ast.Le, Ast.Str a, Ast.Str b -> String.compare a b <= 0
  | Ast.Gt, Ast.Str a, Ast.Str b -> String.compare a b > 0
  | Ast.Ge, Ast.Str a, Ast.Str b -> String.compare a b >= 0
  | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _ -> false

let eval_expr env e = eval_bool env e

let name_matches pattern name = String.equal pattern "*" || String.equal pattern name

let scope_matches (a : Ast.assertion) ~action ~resource =
  name_matches a.Ast.action action && name_matches a.Ast.resource resource

(* Does the assertion's subject/action/resource (with ["*"] wildcards)
   and condition cover the request? *)
let matches (a : Ast.assertion) req =
  name_matches a.Ast.subject req.subject
  && scope_matches a ~action:req.action ~resource:req.resource
  &&
  match a.Ast.condition with
  | None -> true
  | Some c -> eval_expr req.attributes c

(* Is [principal] empowered (directly or by delegation chain from the
   root) to issue assertions covering this action/resource?  Conditions
   on delegation assertions are evaluated in the request environment. *)
let rooted_issuer ~root policy ~action ~resource ~attributes principal =
  let rec reach seen p =
    if String.equal p root then true
    else if List.mem p seen then false
    else
      List.exists
        (fun (a : Ast.assertion) ->
          a.Ast.effect = Ast.Allow && a.Ast.delegable
          && name_matches a.Ast.subject p
          && scope_matches a ~action ~resource
          && (match a.Ast.condition with
             | None -> true
             | Some c -> eval_expr attributes c)
          && reach (p :: seen) a.Ast.issuer)
        policy
  in
  reach [] principal

let decide ~root policy req =
  let rooted (a : Ast.assertion) =
    rooted_issuer ~root policy ~action:req.action ~resource:req.resource
      ~attributes:req.attributes a.Ast.issuer
  in
  let applicable = List.filter (fun a -> matches a req && rooted a) policy in
  if List.exists (fun (a : Ast.assertion) -> a.Ast.effect = Ast.Deny) applicable
  then Denied
  else if
    List.exists (fun (a : Ast.assertion) -> a.Ast.effect = Ast.Allow) applicable
  then Allowed
  else Not_applicable

let decision_to_string = function
  | Allowed -> "allowed"
  | Denied -> "denied"
  | Not_applicable -> "not-applicable"

let request_of_strings request bindings =
  let attribute binding =
    Option.map
      (fun i ->
        let v = String.sub binding (i + 1) (String.length binding - i - 1) in
        ( String.sub binding 0 i,
          match int_of_string_opt v with Some n -> Ast.Int n | None -> Ast.Str v ))
      (String.index_opt binding '=')
  in
  match String.split_on_char ':' request with
  | [ subject; action; resource ] ->
    let attributes = List.filter_map attribute bindings in
    Some { subject; action; resource; attributes }
  | _ -> None
