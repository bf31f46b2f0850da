(** Hand-written lexer for the policy language. *)

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
  | OP_EQ  (** [==] *)
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
(** Message and character offset. *)

val tokenize : string -> token list
(** Whole-input tokenization, ending with [EOF].  Comments run from ['#']
    to end of line.  Raises {!Lex_error} on an illegal character, an
    unterminated string or an integer literal past [max_int]. *)

val token_to_string : token -> string
