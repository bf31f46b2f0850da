(** Plain-text table rendering for experiment output.

    The bench harness prints one table per experiment; this module keeps
    the formatting uniform (aligned columns, a rule under the header). *)

type align = Left | Right

type t

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table.  [aligns] defaults to [Right] for
    every column.  Raises [Invalid_argument] when [aligns] is given with a
    different length than [headers]. *)

val add_row : t -> string list -> unit
(** Append a row.  Raises [Invalid_argument] on column-count mismatch. *)

val render : t -> string
(** The finished table, ending with a newline. *)

val print : t -> unit
(** [render] to stdout. *)

val fmt_pct : float -> string
(** Format a ratio as a percentage with one decimal, e.g. [0.125] ->
    ["12.5%"]. *)
