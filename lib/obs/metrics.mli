(** Named counters, gauges, and log-bucketed histograms, domain-safe.

    Design: each handle is a {!Ring.local} of one plain mutable cell
    per domain.  The hot path reaches the calling domain's cell through
    [Domain.DLS] and writes it — no atomics, no locks; {!snapshot}
    folds each handle's cells at report time.  The only synchronized
    paths are handle creation and a domain's first touch of a handle,
    both cold.

    Telemetry is off by default and the disabled path is near zero
    cost: one atomic load and a branch per operation, no allocation.
    Enabling or disabling never changes what instrumented code prints
    — metrics only accumulate state read by {!snapshot}.

    A snapshot taken while worker domains are still mutating their
    cells cannot crash (cells are word-sized) but may be stale; take
    it at a quiescent point (e.g. after [Pool.map] has joined), which
    is what the battery runners do. *)

val enable : unit -> unit

val disable : unit -> unit

val enabled : unit -> bool

val reset : unit -> unit
(** Zero every domain's cells in place (counters, gauges, histograms):
    handles stay valid, and a domain that touched a handle before the
    reset keeps counting into the same cell after it.  Intended for
    tests and for reusing one process for several batteries. *)

(** {1 Handles}

    Handles are interned by name: creating the same name twice returns
    the same handle; reusing a name with a different metric kind
    raises [Invalid_argument].  Creation is cheap but takes a lock —
    create handles at module initialization, not on hot paths. *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit

val local_count : counter -> int
(** The calling domain's own cell for [c] — not merged.  Reading it
    before and after a synchronous block of work attributes counts to
    that block even while other domains run concurrently (how the
    battery attributes [engine.events_executed] per experiment). *)

val set : gauge -> float -> unit
(** Record an observation; the domain's cell keeps the latest value
    and the maximum.  Across domains, gauges merge by maximum (they are used
    as high-water marks). *)

val observe : histogram -> float -> unit
(** Add a sample to its logarithmic bucket (see {!bucket_index}). *)

(** {1 Buckets}

    Histograms are log2-bucketed over non-negative samples with a
    fixed base of 1e-9 (so second-valued samples bucket from 1ns up):
    bucket [0] holds samples in [\[0, 1e-9)], bucket [i >= 1] holds
    [\[1e-9 * 2^(i-1), 1e-9 * 2^i)], and the top bucket (index 63)
    additionally absorbs everything at or above its lower bound. *)

val bucket_count : int
(** 64. *)

val bucket_index : float -> int
(** Bucket for a sample; negative and NaN samples land in bucket 0. *)

val bucket_upper : int -> float
(** Exclusive upper bound of bucket [i]: [1e-9 * 2^i] (the top
    bucket's nominal bound; it is unbounded in practice). *)

(** {1 Snapshot} *)

type value =
  | Count of int
  | Level of { last : float; max_ : float; sets : int }
      (** merged gauge: [max_] over all domains; [last]/[sets] are
          merged best-effort ([last] from the newest-registered
          domain that set it, [sets] summed) *)
  | Dist of {
      count : int;
      sum : float;
      buckets : (int * int) list;
      p50 : float;
      p90 : float;
      p99 : float;
    }
      (** merged histogram; [buckets] lists [(index, count)] for
          non-empty buckets, ascending.  [p50]/[p90]/[p99] are
          conservative percentile estimates from the log2 buckets:
          each is the {e upper bound} of the bucket where the
          cumulative count first reaches that quantile (0 when the
          histogram is empty), so the true quantile never exceeds
          the reported value. *)

val snapshot : unit -> (string * value) list
(** Merge every domain's cells, sorted by metric name.  Metrics that
    were created but never touched are included with zero values. *)

val render : (string * value) list -> string
(** Human-readable table of a snapshot (counters and gauges one per
    line; histograms as count/sum/mean). *)
