(** Fixed-size domain pool for embarrassingly-parallel maps (OCaml 5).

    [map] fans a function out over a fixed set of worker domains.  Work
    is handed out through a chunked queue — an atomic cursor over the
    input index space — so there is no work stealing and no per-item
    lock contention.  Results are written into per-index slots, so the
    output order always matches the input order regardless of how the
    items were scheduled: [map ~domains:n f xs] returns exactly
    [List.map f xs] for any [n] whenever [f x] depends only on [x].

    Intended for workloads whose items share no mutable state (each
    experiment in the registry builds its own [Rng] and [Engine]); the
    pool itself adds no synchronization around [f]. *)

val default_domains : unit -> int
(** Domains used when [?domains] is omitted:
    [Domain.recommended_domain_count ()] clamped to [\[1, 8\]]. *)

val domains_of_string : string -> (int, string) result
(** Parse a [--domains] argument: trimmed decimal integer [>= 1].
    [Error] carries the message entry points print before exiting 2 —
    the one place both [bench/main] and the CLI validate the flag, so
    garbage can never silently fall back to the default. *)

(** {1 Flag values}

    The other value parsers the entry points share.  Each trims its
    input and names the rejected string in its [Error]. *)

val seed_of_string : what:string -> string -> (int, string) result
(** Any integer; [what] names the seed in the error
    ([invalid fault seed "x" (expected an integer)]). *)

val int_at_least : what:string -> int -> string -> (int, string) result
(** [int_at_least ~what k s]: an integer [>= k]. *)

val seconds_of_string : string -> (float, string) result
(** A finite timeout [> 0] in seconds. *)

val probability_of_string : string -> (float, string) result
(** A significance level strictly between 0 and 1. *)

val backend_of_string : string list -> string -> (string, string) result
(** One of the given backend names. *)

val flag :
  string -> (string -> ('a, string) result) -> string option ->
  ('a option, string) result
(** [flag name parse value]: [Ok None] when the flag was not given.
    A rejected value reads ["NAME: MSG"]; each entry point prefixes
    its own ["CMD: "], prints the line to stderr and exits 2. *)

val domains_flag : seq:bool -> string option -> (int option, string) result
(** [--seq] pins one domain; otherwise [--domains] through
    {!domains_of_string} and {!flag}. *)

type stats = {
  workers : int;
  tasks : int array;  (** items executed per worker *)
  busy_s : float array;  (** wall time spent inside [f] per worker *)
  wall_s : float;  (** wall time of the whole [map] *)
}
(** Per-worker load telemetry for one [map] call.  [wall_s -. busy_s.(w)]
    approximates worker [w]'s queue-wait (startup, chunk fetches, and
    idling after the tail was handed out); the spread of [busy_s] is
    the load imbalance the battery report surfaces. *)

val last_stats : unit -> stats option
(** Stats of the most recently completed [map], recorded only while
    {!Tussle_obs.Metrics} or {!Tussle_obs.Trace} is enabled ([None]
    before the first such call).  Each worker additionally counts
    [pool.tasks] / [pool.maps] and observes [pool.task_run_s], and
    wraps every item in a ["pool.task"] span when tracing. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains f xs] applies [f] to every element of [xs] using up
    to [domains] domains (the calling domain participates as one of
    them) and returns the results in input order.

    [~domains:1] — or a single-element or empty [xs] — runs
    sequentially in the calling domain with no domain spawned at all,
    which is the determinism-pinning mode CI uses.

    If [f] raises on some elements, all remaining work still completes,
    and then the exception of the {e earliest} failing input (with its
    original backtrace) is re-raised in the calling domain.  Raises
    [Invalid_argument] if [domains < 1]. *)
