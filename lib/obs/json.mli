(** Minimal JSON tree, serializer, and parser.

    The container has no yojson, so telemetry carries its own: enough
    JSON to emit Chrome traces and battery reports and to parse them
    back for validation (tests, [tussle report FILE], CI).  Strings
    are escaped per RFC 8259; non-finite floats serialize as [null]
    (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [Int n], one shared node per [n] in [\[-1, 1023\]]: {!parse} and
    the column encoders build most of their ints through it. *)

val to_string : t -> string
(** Render, pretty-printed with 2-space indents so committed reports
    diff cleanly.

    A finite [Float] prints as [%.12g] when that text reads back as
    the same float, else as [%.17g] (which always does).  An integral
    value under 1e12 in magnitude, other than [-0.0], prints through
    [string_of_int]: the same bytes [%.12g] gives.  Non-finite floats
    print as [null]. *)

val to_file : string -> t -> unit
(** {!to_string} plus a trailing newline, written
    atomically: the bytes go to [path ^ ".tmp"] first and are renamed
    over [path] only once complete, so a crashed or watchdogged run
    never leaves a truncated artifact (a stale [.tmp] at worst). *)

val parse : string -> (t, string) result
(** Recursive-descent parser for the subset we emit (all of JSON minus
    [\uXXXX] surrogate pairs, which decode as-is into the string).
    Numbers without [.], [e] or [E] become [Int]; others [Float].  A
    float literal that overflows, such as [1e309], parses to an
    infinity, which {!to_string} re-emits as [null].  A [\u] escape
    takes exactly four hex digits.  Errors carry a byte offset. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-[Obj]. *)

val to_int : t -> int option
(** [Int n] yields [Some n], and so does a [Float] that is an integer
    in OCaml's int range (it round-trips through [int_of_float]); any
    other [Float], such as [1e19] or [1.5], yields [None]. *)

val to_float : t -> float option
(** [Float] or [Int] as a float. *)

val to_str : t -> string option

val to_list : t -> t list option

val to_bool : t -> bool option

(** {1 Decoders}

    One idiom for every artifact reader: [let*] over [result], a
    {!field} lookup per required field and {!list} over arrays.  An
    artifact's [validate] is its decoder followed by the semantic
    checks. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

val field : string -> (t -> 'a option) -> t -> ('a, string) result
(** [field name extract node] is the [name] member of [node] run
    through [extract]; errors read [missing field "name"] or
    [field "name" has the wrong type]. *)

val list : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
(** Decode (or check) every element in order; the first error wins. *)

(** {1 Files} *)

val read_file : string -> (string, string) result
(** The whole file as a string.  [Sys_error] (missing file, a failed
    read) comes back as [Error] with its message, which names the path;
    a directory is [Error "PATH: Is a directory"].  The channel is
    closed either way. *)
