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
    pool itself adds no synchronization around [f].

    {1 The domain budget}

    A process has one domain budget, which the CLI sets once from
    [--domains]/[--seq] before any work runs.  Every [map] without
    [?domains] fans out over the budget, and a [map] called from inside
    another map's item runs inline: on the domain already running that
    item, spawning nothing, however many workers the outer map had.  So
    nesting never multiplies domains, [--seq] means one domain end to
    end, and each item's domain-local counters ([Gc.allocated_bytes],
    {!Tussle_obs.Metrics.local_count}) see all the work the item did. *)

val domains : unit -> int
(** The budget: [Domain.recommended_domain_count ()] clamped to
    [\[1, 8\]] until {!set_domains} changes it. *)

val set_domains : int -> unit
(** Set the budget.  Raises [Invalid_argument] if [n < 1]. *)

val domains_of_string : string -> (int, string) result
(** Parse a [--domains] argument: trimmed decimal integer [>= 1].
    [Error] carries the message the CLI prints before exiting 2 — the
    one place every subcommand validates the flag, so garbage can never
    silently fall back to the default. *)

(** {1 Flag values}

    The other value parsers the CLI's subcommands share.  Each trims its
    input and names the rejected string in its [Error]. *)

val seed_of_string : what:string -> string -> (int, string) result
(** Any integer; [what] names the seed in the error
    ([invalid fault seed "x" (expected an integer)]). *)

val int_at_least : what:string -> int -> string -> (int, string) result
(** [int_at_least ~what k s]: an integer [>= k]. *)

val seconds_of_string : string -> (float, string) result
(** A finite timeout [> 0] in seconds. *)

val non_negative_of_string : what:string -> string -> (float, string) result
(** A finite number [>= 0]. *)

val probability_of_string : string -> (float, string) result
(** A significance level strictly between 0 and 1. *)

val flag :
  string -> (string -> ('a, string) result) -> string option ->
  ('a option, string) result
(** [flag name parse value]: [Ok None] when the flag was not given.
    A rejected value reads ["NAME: MSG"]; each entry point prefixes
    its own ["CMD: "], prints the line to stderr and exits 2. *)

val domains_flag : seq:bool -> string option -> (int option, string) result
(** [--seq] pins one domain; otherwise [--domains] through
    {!domains_of_string} and {!flag}. *)

val artifact : cmd:string -> flag:string -> (unit -> 'a) -> 'a
(** [artifact ~cmd ~flag f] runs [f], which writes the file or
    directory a flag names.  A [Sys_error] out of [f] (an unwritable
    path) prints ["CMD: FLAG: MSG"] to stderr and exits 2, like a bad
    flag value. *)

val last_stats : unit -> Tussle_obs.Report.pool option
(** Per-worker load of the most recently completed top-level [map] (a
    nested map, which runs inline, records none), as the battery
    report's pool block: items run and time spent inside [f] per
    worker, and the map's wall time.  [pool_wall_s -. busy_s.(w)]
    approximates worker [w]'s queue-wait (startup, chunk fetches, and
    idling after the tail was handed out).  Recorded only while
    {!Tussle_obs.Metrics} or {!Tussle_obs.Trace} is enabled ([None]
    before the first such call).  Each worker additionally counts
    [pool.tasks] / [pool.maps] and observes [pool.task_run_s], and
    wraps every item in a ["pool.task"] span when tracing. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains f xs] applies [f] to every element of [xs] using up
    to [domains] domains (default {!domains}[ ()]; the calling domain
    participates as one of them) and returns the results in input
    order.  [?domains] caps this one call; it does not change the
    budget.

    One worker — [~domains:1], a budget of 1, a single-element or
    empty [xs], or a call nested inside another map's item — runs every
    item in the calling domain with no domain spawned at all.  Items
    run in index order then, and a nested map's items run on the outer
    item's domain; a domain spawned from inside an item (the watchdog's
    child) counts as nested too.

    If [f] raises on some elements, all remaining work still completes,
    and then the exception of the {e earliest} failing input (with its
    original backtrace) is re-raised in the calling domain.  Raises
    [Invalid_argument] if [domains < 1]. *)
