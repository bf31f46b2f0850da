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
    {- on an ACK, either kind grows [cwnd] by [1 / cwnd] (additive
       increase of one packet per RTT);}
    {- on a loss, a compliant connection halves [cwnd] and retransmits;
       an {e aggressive} one just retransmits — Savage's endpoint that
       ignores congestion.}}

    {b Resilience} (for runs under {!Tussle_fault} injection): a
    connection started with a {!retry} policy backs its retransmission
    timer off exponentially with seeded jitter, and its retry budget
    turns a dead path into an {e abandoned} connection instead of an
    engine that never drains — experiments quantify graceful
    degradation rather than hanging.  Without a policy the timer is
    fixed, retries are unlimited and nothing is drawn from any rng. *)

type behaviour = Compliant | Aggressive

type status =
  | Active  (** still sending (or stalled waiting on timers) *)
  | Completed  (** every data packet delivered and acknowledged *)
  | Abandoned  (** gave up: some packet exhausted its retry budget *)

type retry
(** A retry policy: backoff, jitter and a per-packet budget. *)

val retry : jitter:Tussle_prelude.Rng.t -> budget:int -> retry
(** [retry ~jitter ~budget]: a packet on its [k]-th retransmission
    waits [min 2 s (20 ms *. 2 ^ k)] before its loss is acted on,
    scaled by a uniform factor in [1 ± 0.1] drawn from [jitter] (one
    draw per timer: it desynchronizes retry storms, and is seeded,
    hence reproducible).  [budget] bounds retransmissions per packet:
    on exhaustion the whole connection moves to [Abandoned], stops
    sending and lets the engine drain.  Raises [Invalid_argument] when
    [budget < 1]. *)

type t

val start :
  ?behaviour:behaviour ->
  ?retry:retry ->
  Engine.t ->
  Net.t ->
  Traffic.t ->
  src:int ->
  dst:int ->
  total_packets:int ->
  t
(** Open the connection and send the first window.  The connection
    registers a {!Net.on_complete} observer; create all connections
    before running the engine.  Compliant by default.  The window
    starts at 1 and grows by 1 per RTT; ACKs take 2 ms; a loss is acted
    on 20 ms after it happens, 10x the ACK delay (a retransmission
    timer well above the RTT, as real stacks use — it also keeps a
    misbehaving sender's packet storm paced rather than
    instantaneous).  Without [retry] that timer is fixed and retries
    are unlimited.  Raises [Invalid_argument] when [total_packets] is
    not positive. *)

val status : t -> status

val abandon_time : t -> float option
(** Engine time at which the connection gave up. *)

val acked : t -> int
(** Distinct data packets acknowledged so far. *)

val retransmissions : t -> int

val losses : t -> int
(** Losses acted on, one per retransmission-timer expiry. *)

val goodput : t -> now:float -> float
(** Acknowledged packets per second, up to [now] (or the finish or
    abandon time if earlier).  0 before anything is acknowledged. *)
