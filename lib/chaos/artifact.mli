(** [tussle report]: recognize a tussle JSON artifact by its schema
    tag, validate it, and summarize it in one line. *)

val check : Tussle_obs.Json.t -> (string * string, string * string) result
(** [Ok (tag, summary)] for a valid artifact, the summary being its key
    members as space-separated [name=value]; [Error (kind, msg)] names
    the kind and what is wrong.  The ["schema"] tag picks the kind: a
    battery, sweep or search report, or a flow trace ({!Explain}); any
    other tag is checked as a battery report. *)
