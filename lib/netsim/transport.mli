(** Closed-loop transport: window-based, ACK-clocked, AIMD — and its
    misbehaving variant.

    This is the packet-level companion of {!Congestion}'s fluid model,
    for experiments that need real queues and real drops.  A connection
    transfers [total_packets] data packets from [src] to [dst] over a
    {!Net}:

    {ul
    {- up to [cwnd] packets are kept in flight;}
    {- a delivery is acknowledged after one ACK delay (the reverse path
       is modelled as a fixed-latency, uncongested channel — ACKs are
       small and rarely the bottleneck; this keeps the forward queues
       the only contention point);}
    {- on an ACK, either kind grows [cwnd] by [increase / cwnd]
       (additive increase per RTT);}
    {- on a loss, a compliant connection halves [cwnd] and retransmits;
       an {e aggressive} one just retransmits — Savage's endpoint that
       ignores congestion.}}

    {b Resilience} (for runs under {!Tussle_fault} injection): the
    retransmission timer can back off exponentially with seeded jitter,
    and a [max_retries] budget turns a dead path into an {e abandoned}
    connection instead of an engine that never drains — experiments
    quantify graceful degradation rather than hanging.  All resilience
    knobs default to the historical behaviour (fixed timer, unlimited
    retries, no rng draws). *)

type behaviour = Compliant | Aggressive

type status =
  | Active  (** still sending (or stalled waiting on timers) *)
  | Completed  (** every data packet delivered and acknowledged *)
  | Abandoned  (** gave up: some packet exhausted [max_retries] *)

type t

val start :
  ?behaviour:behaviour ->
  ?initial_window:float ->
  ?increase:float ->
  ?ack_delay:float ->
  ?loss_timeout:float ->
  ?rto_backoff:float ->
  ?rto_max:float ->
  ?rto_jitter:float ->
  ?jitter_rng:Tussle_prelude.Rng.t ->
  ?max_retries:int ->
  Engine.t ->
  Net.t ->
  Traffic.t ->
  src:int ->
  dst:int ->
  total_packets:int ->
  t
(** Open the connection and send the first window.  The connection
    registers a {!Net.on_complete} observer; create all connections
    before running the engine.  Defaults: compliant, initial window 1,
    additive increase 1 per RTT, ACK delay 2 ms, loss timeout 10x the
    ACK delay (a retransmission timer well above the RTT, as real
    stacks use — it also keeps a misbehaving sender's packet storm
    paced rather than instantaneous).

    Resilience knobs: a packet on its [k]-th retransmission waits
    [min rto_max (loss_timeout *. rto_backoff ^ k)] before the loss is
    acted on ([rto_backoff] >= 1, default 1 = fixed timer; [rto_max]
    defaults to no cap), scaled by a uniform factor in
    [1 ± rto_jitter] drawn from [jitter_rng] when [rto_jitter > 0]
    (desynchronizes retry storms; seeded, hence reproducible).
    [max_retries] (default unlimited) bounds retransmissions per
    packet: on exhaustion the whole connection moves to [Abandoned],
    stops sending, and lets the engine drain.  Raises
    [Invalid_argument] on out-of-range knobs, including a positive
    [rto_jitter] without a [jitter_rng]. *)

val status : t -> status

val completed : t -> bool
(** All data packets delivered and acknowledged. *)

val abandoned : t -> bool

val abandon_time : t -> float option
(** Engine time at which the connection gave up. *)

val acked : t -> int
(** Distinct data packets acknowledged so far. *)

val retransmissions : t -> int

val losses : t -> int

val timeouts : t -> int
(** Retransmission-timer expiries acted on (equal to {!losses} for the
    default fixed timer; diagnostic for backoff experiments). *)

val stalled : t -> now:float -> idle:float -> bool
(** Still [Active] but without new acknowledgements for at least
    [idle] seconds — the "quantify graceful degradation" probe. *)

val goodput : t -> now:float -> float
(** Acknowledged packets per second, up to [now] (or the finish or
    abandon time if earlier).  0 before anything is acknowledged. *)
