(** Deterministic pseudo-random number generation.

    All randomness in the framework flows through this module so that every
    simulation and experiment is reproducible bit-for-bit from an explicit
    seed.  The generator is SplitMix64 (Steele, Lea & Flood 2014): fast,
    64-bit, splittable, and good enough for simulation workloads.

    The state is one unboxed 64-bit word in an 8-byte buffer and the
    mixer is inlined, so even without flambda [bits], [int] and
    [bernoulli] allocate nothing per draw.  A draw that returns a
    [float] or [int64] allocates only its boxed result.  [create],
    [split] and [copy] allocate the buffer; {!fill_float} draws floats
    without boxing them. *)

type t
(** Mutable generator state (8 bytes). *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Equal seeds
    yield equal streams. *)

val seed_at : seed:int -> int -> int
(** [seed_at ~seed index] is [seed + 7919 * (index + 1)]: the seed of
    item [index] of a run fanned out from the master [seed].  The chaos
    sweep, the statistical sweep and the adversarial search all derive
    their per-item seeds through it, so an item depends on (master
    seed, index) alone, never on which domain ran it. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use to give subsystems their own streams without sharing state. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val fill_float : t -> float array -> float -> unit
(** [fill_float t a x] stores [Array.length a] successive [float t x]
    draws in [a.(0)], [a.(1)], ...: the stream of [Array.init
    (Array.length a) (fun _ -> float t x)], with nothing allocated per
    draw. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  Raises [Invalid_argument] on an
    empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val weighted_index : t -> float array -> int
(** [weighted_index t w] samples an index proportionally to the
    non-negative weights [w].  An index with zero weight is never
    returned (in particular not a zero-weight trailing index, even
    under float rounding).  Raises [Invalid_argument] if all weights
    are zero or [w] is empty. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [k] distinct elements without replacement.
    Raises [Invalid_argument] if [k] exceeds the array length. *)
