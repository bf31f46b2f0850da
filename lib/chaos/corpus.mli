(** The replayable chaos regression corpus.

    Every shrunk reproducer is persisted as a small text file —
    scenario name, injection seed, and the minimal plan in
    {!Tussle_fault.Plan.to_string} format — under [chaos/corpus/].
    CI replays the whole directory on every run, so a bug found once
    by the random sweep or the adversarial search is guarded forever
    by a deterministic test. *)

type entry = {
  scenario : string;  (** {!Scenario.t} name the plan fails against *)
  seed : int;  (** injection/traffic seed the failure was found with *)
  plan : Tussle_fault.Plan.t;
}

val filename : entry -> string
(** [scenario-seed-<hash>.plan]; the hash covers the plan text so
    saving the same reproducer twice is idempotent. *)

val check_findings :
  Tussle_obs.Search_report.finding list -> (unit, string) result
(** Each finding that names a corpus file names it as {!filename} does
    for its scenario and minimal plan, under any seed ({!save} may
    return a duplicate found under another seed), and loads back from
    disk to that scenario and plan.  The path is read as the report
    records it, relative to the directory the search ran in, so a file
    that is not there is an [Error] naming the path.  [Error] names the
    first finding that fails. *)

val save : dir:string -> entry -> string * bool
(** Write the entry under [dir] (created if missing, like mkdir -p)
    and return the file path, with [true] when this call created the
    file.  Deduplicated: if the same reproducer — same scenario and
    identical plan text, {e regardless of seed} — is already on disk,
    the existing file's path is returned with [false] and nothing is
    written; a re-found violation must not create a second file. *)

val load : string -> (entry, string) result
(** Parse one corpus file.  The plan is validated; [Error] carries a
    human-readable reason (missing header, bad seed, malformed or
    invalid plan, unreadable file).  The scenario name is not checked
    here: {!Scenario.bind} rejects an unknown one (and a plan that does
    not fit) when the entry is run. *)

val load_dir :
  string -> ((string * (entry, string) result) list, string) result
(** All [*.plan] files under a directory in sorted filename order
    (deterministic replay order), each parsed by {!load}.  [Error]
    carries the system's message, naming the path, when the directory
    cannot be read: it is missing, or it is a file. *)
