(** Point-to-point links: latency, bandwidth and a drop-tail queue.

    The serialization + propagation model is standard:
    departure = arrival + queueing + size/bandwidth, arrival at the far
    end after [latency].  The queue bounds the number of packets in
    flight on the link; arrivals beyond capacity are dropped (drop-tail).

    Links also carry the fault-injection state that {!Tussle_fault}
    drives through timed engine events: an up/down flag, episodic
    loss/corruption probabilities, and an additive latency spike.  All
    of it defaults to "healthy" and costs nothing until set. *)

type t

type fault =
  | Down  (** the link is administratively/physically down *)
  | Loss  (** dropped on the wire by an injected loss episode *)
  | Corrupt  (** transmitted but damaged; discarded on arrival *)
  | Gray
      (** dropped by a gray-failure episode: the data plane eats the
          packet while {!is_up} — what control-plane hellos sample —
          keeps reporting healthy *)

val make :
  ?queue_capacity:int -> latency:float -> bandwidth_bps:float -> unit -> t
(** [make ~latency ~bandwidth_bps ()].  Latency in seconds, bandwidth in
    bits per second, queue capacity in packets (default 64).  Raises
    [Invalid_argument] on non-positive latency/bandwidth. *)

val latency : t -> float

val transmission_delay : t -> int -> float
(** [transmission_delay l bytes] = serialization time of [bytes]. *)

val try_enqueue :
  t -> now:float -> int -> [ `Sent of float | `Dropped | `Faulted of fault ]
(** [try_enqueue l ~now bytes] models a packet offered to the link at
    [now].  [`Sent arrival] gives the time the packet reaches the far
    end (propagation latency plus any injected {!set_extra_latency});
    [`Dropped] means the queue was full; [`Faulted f] means an injected
    fault killed it — [Down]/[Loss] without consuming capacity,
    [Corrupt] after occupying the queue and the wire (the bits were
    transmitted, they just arrive damaged).

    The link keeps internal state (busy-until time and queue
    occupancy), so calls must be made in non-decreasing [now] order;
    calling with a [now] earlier than a previous call raises
    [Invalid_argument] instead of silently corrupting the busy-until
    accounting.  So does a negative [bytes].

    Each departure is at or after the previous one, since a packet
    starts serializing no earlier than the link's busy-until time.  So
    the packets that have left by [now] are always the oldest ones,
    and the queue drops them as a prefix of a ring of departure times.
    The ring starts empty and doubles on demand up to the capacity: a
    link that never carries a packet allocates none of it. *)

val queued : t -> now:float -> int
(** Packets currently occupying the queue at time [now]. *)

val queue_length : t -> int
(** Queue occupancy as of the last offered time, without advancing the
    internal clock.  Read by the flight recorder right after a
    successful [try_enqueue], where it includes the packet just
    enqueued. *)

(** {1 Fault-injection state}

    Set by {!Tussle_fault.Inject} at episode boundaries; harmless to
    drive by hand in tests.  A link starts up, lossless, uncorrupted,
    with no extra latency. *)

val is_up : t -> bool
(** The {e control-plane} view of the link: what hello sampling sees.
    A gray-loss episode leaves this [true] while the data plane drops
    — use {!probe} for data-plane evidence. *)

val set_up : t -> bool -> unit
(** Take the link down (every offered packet becomes [`Faulted Down])
    or bring it back up.  Queue state is preserved across a down
    window; packets already serialized keep their departure times. *)

val set_fault_rng : t -> Tussle_prelude.Rng.t -> unit
(** Attach the seeded stream that loss/corruption draws consume.  Must
    be called before setting a positive probability.  Determinism: the
    engine fires events in a fixed order, so the draw sequence — and
    hence every fault outcome — is a pure function of the seed. *)

val set_loss_prob : t -> float -> unit
(** Per-packet on-the-wire loss probability in [0,1] (raises
    [Invalid_argument] outside, or if positive with no fault rng). *)

val set_corrupt_prob : t -> float -> unit
(** Per-packet corruption probability in [0,1], drawn only for packets
    that were actually transmitted. *)

val set_gray_loss_prob : t -> float -> unit
(** Per-packet gray-loss probability in [0,1]: the data plane drops
    with this probability while {!is_up} stays [true], so hello-based
    detection cannot see the fault.  Same preconditions as
    {!set_loss_prob}. *)

val set_extra_latency : t -> float -> unit
(** Additive propagation latency (a latency-spike episode); >= 0. *)

val fault_drops : t -> int
(** Packets killed by [Down] or [Loss]. *)

val gray_drops : t -> int
(** Packets killed by [Gray] — counted apart from {!fault_drops} so
    the chaos ledger can check covert drops are never silently lost. *)

val corrupted_count : t -> int
(** Packets killed by [Corrupt]. *)

val probe : t -> Tussle_prelude.Rng.t -> bool
(** [probe l rng] offers a {e virtual} data-plane probe: [true] iff a
    packet offered right now would survive the link's injected faults
    (up, not wire-lost, not gray-dropped).  Randomness comes from the
    caller's [rng], never the link's fault stream, and no counter or
    queue state is touched — a data-plane health detector can probe on
    its own schedule without perturbing traffic outcomes or the
    fault-accounting ledger.  Blind to queue occupancy by design: it
    tests the fault plane, not congestion. *)

val fold_distinct : t Tussle_prelude.Graph.t -> init:'a -> f:('a -> t -> 'a) -> 'a
(** Fold [f] over the distinct link objects of a graph, each once, in
    first-seen edge order: an undirected label shared both ways, or
    one label on any number of edges, counts once.  One linear pass
    with no table: each visit stamps the link with a mark unique to
    the pass.  So [f] must not itself start a [fold_distinct] over the
    same links. *)
