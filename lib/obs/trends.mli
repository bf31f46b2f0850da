(** Benchmark trends behind [tussle trends] and [tussle perfgate]:
    the [tussle.bench-history/1] JSONL history, per-experiment deltas
    against a baseline battery report, and the wall-clock / GC
    allocation regression gate. *)

val load : string -> (Json.t * Report.exp list, string) result
(** Read, parse and validate a battery report, returning it with its
    decoded experiment list.  Errors: the [Sys_error] message, the
    path-prefixed parse error, or [PATH: invalid battery report: MSG]. *)

val history_line : Json.t -> Report.exp list -> Json.t
(** The bench-history entry for a loaded report: its label,
    generation time, domain count and wall clock, plus each
    experiment's id, wall clock and allocation. *)

val append : history:string -> Json.t -> (unit, string) result
(** Append one minified line to [history], creating the file if
    needed.  [Error] carries the [Sys_error] message. *)

val check_history : string -> (int, string) result
(** Re-read the whole history and count its non-blank lines; every
    line must parse and carry the bench-history schema tag.  The first
    bad line is reported as [PATH:LINE: MSG] (1-based). *)

val deltas : base:Report.exp list -> Report.exp list -> string
(** Table of wall-clock and allocation deltas per experiment of the
    second list against [base]; ids absent from [base] read ["new"]. *)

type verdict = Pass | Regression | Missing

val gate :
  tolerance:float ->
  ids:string list ->
  base:Report.exp list ->
  Report.exp list ->
  string * verdict
(** Check each id's wall clock and allocation against
    [base *. (1 + tolerance)]; a zero baseline gates nothing.  Returns
    one line per checked metric and the verdict: [Missing] when an id
    is absent from either list (it wins over [Regression]). *)
