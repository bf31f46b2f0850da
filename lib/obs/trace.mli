(** Span-based tracing with Chrome trace-event export.

    Each domain records completed spans into its own ring buffer of
    {!Ring.capacity} spans (oldest spans are overwritten; {!dropped}
    reports how many).  Timestamps come from {!Clock} (monotonic).  {!to_chrome}
    merges every domain's ring into a Chrome trace-event JSON object
    — open the written file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto} — with one complete ("ph":
    "X") event per span, the recording domain as the tid, and span
    args as the event's [args].

    Like {!Metrics}, tracing is off by default, the disabled path is a
    flag check, and recording never changes what instrumented code
    prints.  Spans that are still open when tracing is disabled (or
    that were begun while it was disabled) are discarded on [end]. *)

val enable : unit -> unit
(** Start recording. *)

val disable : unit -> unit

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded spans and drop counts; keeps tracing
    enabled/disabled as it was. *)

type span
(** An open span.  Values are cheap; a span begun while tracing is
    disabled is a no-op token. *)

val begin_span : ?cat:string -> ?args:(string * string) list -> string -> span

val end_span : span -> unit
(** Record the span into the calling domain's ring.  End a span on the
    domain that began it (spans never migrate in this codebase; a
    migrated span would be attributed to the ending domain). *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] wraps [f ()] in a span, recording it whether
    [f] returns or raises (the exception is re-raised with its
    backtrace). *)

type event = {
  name : string;
  cat : string;
  args : (string * string) list;
  ts_ns : int64;  (** span start, monotonic *)
  dur_ns : int64;
  domain : int;  (** [Domain.self] of the recording domain *)
}

val events : unit -> event list
(** All recorded spans, merged across domains, sorted by start time
    (ties: longer span first, so parents precede children). *)

val dropped : unit -> int
(** Spans lost to ring overwrite since the last {!reset}. *)

val to_chrome : unit -> Json.t
(** The merged spans as a Chrome trace-event JSON object
    ([{"traceEvents": [...], "displayTimeUnit": "ms"}]). *)

val write_chrome : string -> unit
(** [to_chrome] to a file. *)
