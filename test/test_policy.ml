(* Tests for tussle.policy: lexer, parser, evaluation, delegation,
   ontology. *)

module Rng = Tussle_prelude.Rng
module Ast = Tussle_policy.Ast
module Lexer = Tussle_policy.Lexer
module Parser = Tussle_policy.Parser
module Eval = Tussle_policy.Eval
module Ontology = Tussle_policy.Ontology

let check_float = Alcotest.(check (float 1e-9))

let decision =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (Eval.decision_to_string d))
    ( = )

(* ---------- Lexer ---------- *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "alice says allow bob send on mail." in
  Alcotest.(check int) "token count" 9 (List.length toks);
  Alcotest.(check bool) "ends with eof" true
    (List.nth toks 8 = Lexer.EOF);
  Alcotest.(check bool) "ident" true (List.hd toks = Lexer.IDENT "alice")

let test_lexer_operators () =
  let toks = Lexer.tokenize "== != < <= > >=" in
  Alcotest.(check (list string)) "ops"
    [ "=="; "!="; "<"; "<="; ">"; ">="; "<eof>" ]
    (List.map Lexer.token_to_string toks)

let test_lexer_string_and_int () =
  match Lexer.tokenize "\"hello world\" 42" with
  | [ Lexer.STRING s; Lexer.INT n; Lexer.EOF ] ->
    Alcotest.(check string) "string" "hello world" s;
    Alcotest.(check int) "int" 42 n
  | _ -> Alcotest.fail "unexpected tokens"

let test_lexer_comment () =
  let toks = Lexer.tokenize "# a comment\nalice" in
  Alcotest.(check int) "comment skipped" 2 (List.length toks)

let test_lexer_errors () =
  (try
     ignore (Lexer.tokenize "@");
     Alcotest.fail "should raise"
   with Lexer.Lex_error (_, 0) -> ());
  (try
     ignore (Lexer.tokenize "\"unterminated");
     Alcotest.fail "should raise"
   with Lexer.Lex_error (msg, _) ->
     Alcotest.(check string) "msg" "unterminated string" msg);
  (* past max_int: once an uncaught Failure out of int_of_string *)
  (match Lexer.tokenize "x == 4611686018427387903" with
  | [ _; _; Lexer.INT n; Lexer.EOF ] -> Alcotest.(check int) "max_int" max_int n
  | _ -> Alcotest.fail "max_int literal");
  List.iter
    (fun (text, at) ->
      match Lexer.tokenize text with
      | _ -> Alcotest.failf "accepted %S" text
      | exception Lexer.Lex_error (msg, pos) ->
        Alcotest.(check (pair string int)) text
          ("integer literal out of range", at) (msg, pos))
    [ ("x == 99999999999999999999999", 5); ("4611686018427387904", 0) ]

(* ---------- Parser ---------- *)

let test_parse_simple () =
  let a = Parser.parse_assertion "alice says allow bob send on mail." in
  Alcotest.(check string) "issuer" "alice" a.Ast.issuer;
  Alcotest.(check string) "subject" "bob" a.Ast.subject;
  Alcotest.(check string) "action" "send" a.Ast.action;
  Alcotest.(check string) "resource" "mail" a.Ast.resource;
  Alcotest.(check bool) "allow" true (a.Ast.effect = Ast.Allow);
  Alcotest.(check bool) "not delegable" false a.Ast.delegable;
  Alcotest.(check bool) "no condition" true (a.Ast.condition = None)

let test_parse_deny_wildcards () =
  let a = Parser.parse_assertion "root says deny eve * on *." in
  Alcotest.(check bool) "deny" true (a.Ast.effect = Ast.Deny);
  Alcotest.(check string) "action wild" "*" a.Ast.action;
  Alcotest.(check string) "resource wild" "*" a.Ast.resource

let test_parse_condition () =
  let a =
    Parser.parse_assertion
      "isp says allow user send on backbone where port == 25 and size < 1000."
  in
  match a.Ast.condition with
  | Some (Ast.And (Ast.Cmp (Ast.Eq, Ast.Attr "port", Ast.Const (Ast.Int 25)), _)) -> ()
  | Some e ->
    Alcotest.failf "unexpected condition %a" (fun ppf -> Ast.pp_expr ppf) e
  | None -> Alcotest.fail "missing condition"

let test_parse_delegable () =
  let a = Parser.parse_assertion "root says allow isp1 connect on \"*\" delegable." in
  Alcotest.(check bool) "delegable" true a.Ast.delegable;
  Alcotest.(check string) "quoted resource" "*" a.Ast.resource

let test_parse_precedence () =
  (* and binds tighter than or *)
  match Parser.parse_expr "a == 1 or b == 2 and c == 3" with
  | Ast.Or (_, Ast.And (_, _)) -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_not_parens () =
  match Parser.parse_expr "not (a == 1)" with
  | Ast.Not (Ast.Cmp (Ast.Eq, _, _)) -> ()
  | _ -> Alcotest.fail "not/parens wrong"

let test_parse_multiple () =
  let p =
    Parser.parse
      "alice says allow bob send on mail. root says deny eve * on *."
  in
  Alcotest.(check int) "two assertions" 2 (List.length p)

let test_parse_error_cases () =
  (try
     ignore (Parser.parse_assertion "alice allow bob send on mail.");
     Alcotest.fail "missing says"
   with Parser.Parse_error _ -> ());
  (try
     ignore (Parser.parse_assertion "alice says allow bob send on mail");
     Alcotest.fail "missing dot"
   with Parser.Parse_error _ -> ());
  try
    ignore (Parser.parse_expr "a ==");
    Alcotest.fail "dangling op"
  with Parser.Parse_error _ -> ()

let test_parse_roundtrip_pp () =
  let text = "isp says allow user send on backbone where port == 25 delegable." in
  let a = Parser.parse_assertion text in
  let printed = Format.asprintf "%a" Ast.pp_assertion a in
  let a2 = Parser.parse_assertion printed in
  Alcotest.(check bool) "pp parses back equal" true (a = a2)

(* ---------- Eval ---------- *)

let req ?(attributes = []) subject action resource =
  { Eval.subject; action; resource; attributes }

let test_eval_direct_allow () =
  let p = Parser.parse "root says allow bob send on mail." in
  Alcotest.check decision "allowed" Eval.Allowed
    (Eval.decide ~root:"root" p (req "bob" "send" "mail"))

let test_eval_default_deny () =
  let p = Parser.parse "root says allow bob send on mail." in
  Alcotest.check decision "other subject" Eval.Not_applicable
    (Eval.decide ~root:"root" p (req "carol" "send" "mail"));
  Alcotest.check decision "other action" Eval.Not_applicable
    (Eval.decide ~root:"root" p (req "bob" "read" "mail"))

let test_eval_unrooted_ignored () =
  (* random principal's say-so does not count *)
  let p = Parser.parse "mallory says allow mallory * on *." in
  Alcotest.check decision "not rooted" Eval.Not_applicable
    (Eval.decide ~root:"root" p (req "mallory" "send" "mail"))

let test_eval_deny_overrides () =
  let p =
    Parser.parse
      "root says allow * send on mail. root says deny eve send on mail."
  in
  Alcotest.check decision "eve denied" Eval.Denied
    (Eval.decide ~root:"root" p (req "eve" "send" "mail"));
  Alcotest.check decision "others fine" Eval.Allowed
    (Eval.decide ~root:"root" p (req "bob" "send" "mail"))

let test_eval_condition_gate () =
  let p =
    Parser.parse "root says allow bob send on mail where port == 25."
  in
  Alcotest.check decision "matching attr" Eval.Allowed
    (Eval.decide ~root:"root" p
       (req ~attributes:[ ("port", Ast.Int 25) ] "bob" "send" "mail"));
  Alcotest.check decision "wrong attr" Eval.Not_applicable
    (Eval.decide ~root:"root" p
       (req ~attributes:[ ("port", Ast.Int 80) ] "bob" "send" "mail"));
  Alcotest.check decision "missing attr fails closed" Eval.Not_applicable
    (Eval.decide ~root:"root" p (req "bob" "send" "mail"))

let test_eval_delegation_chain () =
  let p =
    Parser.parse
      "root says allow isp connect on backbone delegable. \
       isp says allow reseller connect on backbone delegable. \
       reseller says allow customer connect on backbone."
  in
  Alcotest.check decision "two-hop chain" Eval.Allowed
    (Eval.decide ~root:"root" p (req "customer" "connect" "backbone"));
  Alcotest.check decision "isp itself" Eval.Allowed
    (Eval.decide ~root:"root" p (req "isp" "connect" "backbone"))

let test_eval_nondelegable_breaks_chain () =
  let p =
    Parser.parse
      "root says allow isp connect on backbone. \
       isp says allow customer connect on backbone."
  in
  (* isp's grant is not delegable, so isp cannot re-issue *)
  Alcotest.check decision "chain broken" Eval.Not_applicable
    (Eval.decide ~root:"root" p (req "customer" "connect" "backbone"))

let test_eval_delegation_scope_limited () =
  let p =
    Parser.parse
      "root says allow isp connect on backbone delegable. \
       isp says allow customer send on mail."
  in
  (* delegation covered connect/backbone, not send/mail *)
  Alcotest.check decision "out of scope" Eval.Not_applicable
    (Eval.decide ~root:"root" p (req "customer" "send" "mail"))

let test_eval_delegation_cycle_safe () =
  let p =
    Parser.parse
      "a says allow b x on y delegable. b says allow a x on y delegable. \
       a says allow victim x on y."
  in
  (* a and b vouch for each other but neither is rooted *)
  Alcotest.check decision "cycle not rooted" Eval.Not_applicable
    (Eval.decide ~root:"root" p (req "victim" "x" "y"))

let test_eval_expr_semantics () =
  let env = [ ("x", Ast.Int 5); ("s", Ast.Str "abc"); ("b", Ast.Bool true) ] in
  let t s = Eval.eval_expr env (Parser.parse_expr s) in
  Alcotest.(check bool) "lt" true (t "x < 6");
  Alcotest.(check bool) "ge" true (t "x >= 5");
  Alcotest.(check bool) "str eq" true (t "s == \"abc\"");
  Alcotest.(check bool) "str lt" true (t "s < \"abd\"");
  Alcotest.(check bool) "bool attr" true (t "b == true");
  Alcotest.(check bool) "and" false (t "x < 6 and x > 5");
  Alcotest.(check bool) "or" true (t "x < 6 or x > 100");
  Alcotest.(check bool) "not" true (t "not (x == 6)");
  Alcotest.(check bool) "type mismatch false" false (t "s < 3");
  Alcotest.(check bool) "missing attr false" false (t "missing == 1")

let test_eval_wildcard_subject () =
  let p = Parser.parse "root says allow * send on mail." in
  Alcotest.(check bool) "anyone" true
    (Eval.decide ~root:"root" p (req "whoever" "send" "mail") = Eval.Allowed)

(* ---------- ontology ---------- *)

let test_ontology_coverage () =
  let ont = Ontology.make_ontology [ "port"; "app" ] in
  let c1 = { Ontology.label = "c1"; footprint = [ "port" ] } in
  let c2 = { Ontology.label = "c2"; footprint = [ "port"; "app" ] } in
  let c3 = { Ontology.label = "c3"; footprint = [ "jurisdiction" ] } in
  Alcotest.(check bool) "c1 in" true (Ontology.expressible ont c1);
  Alcotest.(check bool) "c3 out" false (Ontology.expressible ont c3);
  check_float "coverage" (2.0 /. 3.0) (Ontology.coverage ont [ c1; c2; c3 ])

let test_ontology_ceiling () =
  (* even the full standard ontology cannot express unanticipated tussles *)
  let rng = Rng.create 7 in
  let cs = Ontology.random_constraints rng ~n:400 ~anticipated_bias:0.8 in
  let full = Ontology.make_ontology Ontology.standard_attributes in
  let cov = Ontology.coverage full cs in
  Alcotest.(check bool) "ceiling below 1" true (cov < 1.0);
  Alcotest.(check bool) "but substantial" true (cov > 0.3);
  (* a richer ontology strictly helps *)
  let richer =
    Ontology.make_ontology
      (Ontology.standard_attributes @ Ontology.unanticipated_attributes)
  in
  check_float "full coverage" 1.0 (Ontology.coverage richer cs)

let test_ontology_monotone () =
  let rng = Rng.create 9 in
  let cs = Ontology.random_constraints rng ~n:200 ~anticipated_bias:0.7 in
  let prefix n =
    let rec take k = function
      | [] -> []
      | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
    in
    take n Ontology.standard_attributes
  in
  let prev = ref (-1.0) in
  List.iter
    (fun n ->
      let cov = Ontology.coverage (Ontology.make_ontology (prefix n)) cs in
      Alcotest.(check bool) "monotone" true (cov >= !prev);
      prev := cov)
    [ 0; 2; 4; 6; 9 ]

(* ---------- qcheck: generated assertions parse back ---------- *)

let ident_gen =
  QCheck2.Gen.(
    let letters = "abcdefghij" in
    map
      (fun (a, b) ->
        Printf.sprintf "%c%c" letters.[a mod 10] letters.[b mod 10])
      (pair small_int small_int))

let assertion_gen =
  QCheck2.Gen.(
    let* issuer = ident_gen in
    let* subject = ident_gen in
    let* action = ident_gen in
    let* resource = ident_gen in
    let* allow = bool in
    let* delegable = bool in
    let* with_cond = bool in
    let* attr = ident_gen in
    let* v = int_range 0 1000 in
    return
      {
        Ast.issuer;
        effect = (if allow then Ast.Allow else Ast.Deny);
        subject;
        action;
        resource;
        condition =
          (if with_cond then
             Some (Ast.Cmp (Ast.Le, Ast.Attr attr, Ast.Const (Ast.Int v)))
           else None);
        delegable;
      })

let prop_pp_parse_roundtrip =
  QCheck2.Test.make ~name:"pp/parse roundtrip" ~count:300 assertion_gen
    (fun a ->
      let printed = Format.asprintf "%a" Ast.pp_assertion a in
      Parser.parse_assertion printed = a)

(* ---------- Parser.parse fuzz ---------- *)

(* What every input must do: parse, or raise Parse_error, or raise
   Lex_error at an offset inside the input; never anything else. *)
let parse_contract s =
  match Parser.parse s with
  | _ -> true
  | exception Parser.Parse_error _ -> true
  | exception Lexer.Lex_error (_, pos) ->
    (pos >= 0 && pos < String.length s)
    || QCheck2.Test.fail_reportf "parse %S: Lex_error at %d" s pos
  | exception e ->
    QCheck2.Test.fail_reportf "parse %S raised %s" s (Printexc.to_string e)

(* Bytes policy text is made of, plus a few it never is. *)
let policy_alphabet =
  "abdeghilnorstwxy_-0123456789 \n\t\"#()*.=!<>\x00\x80\xff"

(* Lexemes the lexer's slots might meet: keywords, operators and their
   halves, integers at and past max_int, spellings OCaml's
   int_of_string would read another way, strings, comments. *)
let policy_lexemes =
  [ "says"; "allow"; "deny"; "on"; "where"; "delegable"; "and"; "or"; "not";
    "true"; "false"; "=="; "="; "!="; "!"; "<"; "<="; ">"; ">="; "("; ")";
    "."; "*"; "0"; "007"; "4611686018427387903"; "4611686018427387904";
    "99999999999999999999999"; "-1"; "0x10"; "1_0"; "1e309"; "nan"; "inf";
    "\"\""; "\"a b\""; "\"unterminated"; "# c\n"; "x-y"; "_"; " "; "\n" ]

let gen_policy_char =
  QCheck2.Gen.(
    frequency
      [ (3, map (String.get policy_alphabet)
              (int_bound (String.length policy_alphabet - 1)));
        (1, char) ])

(* [doc] with up to three edits: a byte replaced, a byte or lexeme
   inserted, a byte deleted, or the tail cut off. *)
let gen_edited doc =
  QCheck2.Gen.(
    let edit doc =
      let n = String.length doc in
      int_bound n >>= fun i ->
      gen_policy_char >>= fun c ->
      oneofl policy_lexemes >>= fun lex ->
      oneofl
        [
          (if i < n then String.mapi (fun j d -> if j = i then c else d) doc
           else doc);
          String.sub doc 0 i ^ String.make 1 c ^ String.sub doc i (n - i);
          String.sub doc 0 i ^ " " ^ lex ^ " " ^ String.sub doc i (n - i);
          (if i < n then String.sub doc 0 i ^ String.sub doc (i + 1) (n - i - 1)
           else doc);
          String.sub doc 0 i;
        ]
    in
    int_range 0 3 >>= fun edits ->
    let rec apply k doc =
      if k = 0 then pure doc else edit doc >>= apply (k - 1)
    in
    apply edits doc)

let gen_expr =
  QCheck2.Gen.(
    let leaf =
      map3
        (fun op attr v -> Ast.Cmp (op, Ast.Attr attr, Ast.Const (Ast.Int v)))
        (oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
        ident_gen (int_range 0 1000)
    in
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             oneof
               [ leaf;
                 map2 (fun l r -> Ast.And (l, r)) (self (n / 2)) (self (n / 2));
                 map2 (fun l r -> Ast.Or (l, r)) (self (n / 2)) (self (n / 2));
                 map (fun e -> Ast.Not e) (self (n - 1)) ]))

(* Printed valid policies (one to three assertions, nested
   conditions), then edited. *)
let gen_printed_policy =
  QCheck2.Gen.(
    let assertion =
      map2
        (fun a c -> { a with Ast.condition = c })
        assertion_gen (opt gen_expr)
    in
    list_size (int_range 1 3) assertion >>= fun policy ->
    gen_edited
      (String.concat "\n"
         (List.map (Format.asprintf "%a" Ast.pp_assertion) policy)))

(* Lexemes strung together, then edited. *)
let gen_lexeme_policy =
  QCheck2.Gen.(
    list_size (int_range 1 12) (oneofl policy_lexemes) >>= fun lexemes ->
    gen_edited (String.concat " " lexemes))

let gen_policy_bytes =
  QCheck2.Gen.(string_size ~gen:gen_policy_char (int_range 0 60))

(* Unshrunk: the failure message already names the input. *)
let prop_parse_contract name gen =
  QCheck2.Test.make ~name ~count:2000 ~print:String.escaped
    (QCheck2.Gen.no_shrink gen) parse_contract

let prop_parse_bytes =
  prop_parse_contract "parse contract (arbitrary bytes)" gen_policy_bytes

let prop_parse_printed =
  prop_parse_contract "parse contract (edited printed policies)"
    gen_printed_policy

let prop_parse_lexemes =
  prop_parse_contract "parse contract (edge lexemes)" gen_lexeme_policy

(* [not] and parentheses nested up to 10^5 deep: balanced nests parse
   to exactly that depth, an unclosed one is a Parse_error. *)
let rec not_depth = function Ast.Not e -> 1 + not_depth e | _ -> 0

let prop_parse_deep =
  QCheck2.Test.make ~name:"parse contract (nested 10^5 deep)" ~count:20
    ~print:(fun (shape, k) -> Printf.sprintf "%s x %d" shape k)
    QCheck2.Gen.(
      pair (oneofl [ "not"; "parens"; "unclosed" ]) (int_range 1 100_000))
    (fun (shape, k) ->
      let text cond = Printf.sprintf "a says allow b c on d where %s." cond in
      let rep s = String.concat "" (List.init k (fun _ -> s)) in
      match shape with
      | "not" -> (
        match Parser.parse (text (rep "not " ^ "x == 1")) with
        | [ { Ast.condition = Some e; _ } ] -> not_depth e = k
        | _ -> false)
      | "parens" -> (
        match Parser.parse (text (rep "(" ^ "x == 1" ^ rep ")")) with
        | [ { Ast.condition = Some (Ast.Cmp _); _ } ] -> true
        | _ -> false)
      | _ -> (
        match Parser.parse (text (rep "(" ^ "x == 1")) with
        | _ -> false
        | exception Parser.Parse_error _ -> true))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pp_parse_roundtrip; prop_parse_bytes; prop_parse_printed;
      prop_parse_lexemes; prop_parse_deep ]

let test_request_of_strings () =
  (match Eval.request_of_strings "alice:read:doc" [ "age=42"; "tier=gold"; "junk" ] with
  | Some r ->
    Alcotest.(check (list string)) "subject, action, resource"
      [ "alice"; "read"; "doc" ] [ r.Eval.subject; r.Eval.action; r.Eval.resource ];
    Alcotest.(check bool) "typed bindings, junk ignored" true
      (r.Eval.attributes = [ ("age", Ast.Int 42); ("tier", Ast.Str "gold") ])
  | None -> Alcotest.fail "well-formed request rejected");
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true
        (Eval.request_of_strings bad [] = None))
    [ "alice:read"; "a:b:c:d"; "" ]

let () =
  Alcotest.run "policy"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "string and int" `Quick test_lexer_string_and_int;
          Alcotest.test_case "comment" `Quick test_lexer_comment;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "deny/wildcards" `Quick test_parse_deny_wildcards;
          Alcotest.test_case "condition" `Quick test_parse_condition;
          Alcotest.test_case "delegable" `Quick test_parse_delegable;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "not/parens" `Quick test_parse_not_parens;
          Alcotest.test_case "multiple" `Quick test_parse_multiple;
          Alcotest.test_case "errors" `Quick test_parse_error_cases;
          Alcotest.test_case "pp roundtrip" `Quick test_parse_roundtrip_pp;
        ] );
      ( "eval",
        [
          Alcotest.test_case "direct allow" `Quick test_eval_direct_allow;
          Alcotest.test_case "default deny" `Quick test_eval_default_deny;
          Alcotest.test_case "unrooted ignored" `Quick test_eval_unrooted_ignored;
          Alcotest.test_case "deny overrides" `Quick test_eval_deny_overrides;
          Alcotest.test_case "condition gate" `Quick test_eval_condition_gate;
          Alcotest.test_case "delegation chain" `Quick test_eval_delegation_chain;
          Alcotest.test_case "non-delegable breaks" `Quick
            test_eval_nondelegable_breaks_chain;
          Alcotest.test_case "delegation scope" `Quick
            test_eval_delegation_scope_limited;
          Alcotest.test_case "delegation cycle" `Quick test_eval_delegation_cycle_safe;
          Alcotest.test_case "expr semantics" `Quick test_eval_expr_semantics;
          Alcotest.test_case "wildcard subject" `Quick test_eval_wildcard_subject;
          Alcotest.test_case "request of strings" `Quick test_request_of_strings;
        ] );
      ( "ontology",
        [
          Alcotest.test_case "coverage" `Quick test_ontology_coverage;
          Alcotest.test_case "ceiling" `Quick test_ontology_ceiling;
          Alcotest.test_case "monotone" `Quick test_ontology_monotone;
        ] );
      ("properties", qcheck_cases);
    ]
