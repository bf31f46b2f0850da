type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | KW_SAYS
  | KW_ALLOW
  | KW_DENY
  | KW_ON
  | KW_WHERE
  | KW_DELEGABLE
  | KW_AND
  | KW_OR
  | KW_NOT
  | KW_TRUE
  | KW_FALSE
  | OP_EQ
  | OP_NEQ
  | OP_LT
  | OP_LE
  | OP_GT
  | OP_GE
  | LPAREN
  | RPAREN
  | DOT
  | STAR
  | EOF

exception Lex_error of string * int

let keyword_of = function
  | "says" -> Some KW_SAYS
  | "allow" -> Some KW_ALLOW
  | "deny" -> Some KW_DENY
  | "on" -> Some KW_ON
  | "where" -> Some KW_WHERE
  | "delegable" -> Some KW_DELEGABLE
  | "and" -> Some KW_AND
  | "or" -> Some KW_OR
  | "not" -> Some KW_NOT
  | "true" -> Some KW_TRUE
  | "false" -> Some KW_FALSE
  | _ -> None

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '-'

let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let rec skip_line i = if i < n && input.[i] <> '\n' then skip_line (i + 1) else i in
  let rec go i acc =
    if i >= n then List.rev (EOF :: acc)
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '#' -> go (skip_line i) acc
      | '(' -> go (i + 1) (LPAREN :: acc)
      | ')' -> go (i + 1) (RPAREN :: acc)
      | '.' -> go (i + 1) (DOT :: acc)
      | '*' -> go (i + 1) (STAR :: acc)
      | '=' ->
        if i + 1 < n && input.[i + 1] = '=' then go (i + 2) (OP_EQ :: acc)
        else raise (Lex_error ("expected '=='", i))
      | '!' ->
        if i + 1 < n && input.[i + 1] = '=' then go (i + 2) (OP_NEQ :: acc)
        else raise (Lex_error ("expected '!='", i))
      | '<' ->
        if i + 1 < n && input.[i + 1] = '=' then go (i + 2) (OP_LE :: acc)
        else go (i + 1) (OP_LT :: acc)
      | '>' ->
        if i + 1 < n && input.[i + 1] = '=' then go (i + 2) (OP_GE :: acc)
        else go (i + 1) (OP_GT :: acc)
      | '"' ->
        let rec scan j =
          if j >= n then raise (Lex_error ("unterminated string", i))
          else if input.[j] = '"' then j
          else scan (j + 1)
        in
        let close = scan (i + 1) in
        let s = String.sub input (i + 1) (close - i - 1) in
        go (close + 1) (STRING s :: acc)
      | c when is_digit c -> (
        let rec scan j = if j < n && is_digit input.[j] then scan (j + 1) else j in
        let stop = scan i in
        match int_of_string_opt (String.sub input i (stop - i)) with
        | Some v -> go stop (INT v :: acc)
        | None -> raise (Lex_error ("integer literal out of range", i)))
      | c when is_ident_start c ->
        let rec scan j =
          if j < n && is_ident_char input.[j] then scan (j + 1) else j
        in
        let stop = scan i in
        let word = String.sub input i (stop - i) in
        let tok =
          match keyword_of word with Some kw -> kw | None -> IDENT word
        in
        go stop (tok :: acc)
      | c -> raise (Lex_error (Printf.sprintf "illegal character %C" c, i))
  in
  go 0 []

let token_to_string = function
  | IDENT s -> Printf.sprintf "IDENT(%s)" s
  | INT n -> Printf.sprintf "INT(%d)" n
  | STRING s -> Printf.sprintf "STRING(%S)" s
  | KW_SAYS -> "says"
  | KW_ALLOW -> "allow"
  | KW_DENY -> "deny"
  | KW_ON -> "on"
  | KW_WHERE -> "where"
  | KW_DELEGABLE -> "delegable"
  | KW_AND -> "and"
  | KW_OR -> "or"
  | KW_NOT -> "not"
  | KW_TRUE -> "true"
  | KW_FALSE -> "false"
  | OP_EQ -> "=="
  | OP_NEQ -> "!="
  | OP_LT -> "<"
  | OP_LE -> "<="
  | OP_GT -> ">"
  | OP_GE -> ">="
  | LPAREN -> "("
  | RPAREN -> ")"
  | DOT -> "."
  | STAR -> "*"
  | EOF -> "<eof>"
