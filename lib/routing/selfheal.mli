(** A self-healing link-state control plane.

    PR 4 made faults injectable; this module makes routing {e recover}
    from them instead of draining traffic into a black hole until the
    plan restores the link.  A [Selfheal.t] attached to a live
    {!Tussle_netsim.Net} samples every adjacency's liveness on a hello
    timer, declares a link down after {!hellos_missed} consecutive
    missed hellos (and up again on the first good one), and — one
    {!recompute_delay} later — swaps a freshly computed
    {!Linkstate} forwarding table into the net via
    {!Tussle_netsim.Net.set_forwarding}.  Packets in flight consult
    the new table at their next hop.

    Hello sampling reads {!Tussle_netsim.Link.is_up} — the control
    plane's view — which a whole family of faults leaves untouched: a
    gray-loss episode drops data while hellos pass, a unidirectional
    fault kills one direction, a Byzantine node answers hellos while
    silently discarding transit traffic.  The {!Verified} detector
    closes that gap with evidence from the data plane itself: windowed
    delivered/offered probe accounting per adjacency direction (via
    {!Tussle_netsim.Link.probe}, which never perturbs traffic or fault
    streams), and seeded end-to-end transit probes — real packets
    source-routed through each candidate node — whose silent
    disappearance unmasks a blackhole and quarantines it.  It also
    damps route flaps: each believed-state flip charges an
    exponentially decaying penalty, and an adjacency whose penalty
    crosses the suppress threshold is held down until the penalty
    decays to reuse, bounding the recompute churn a flapping link can
    extort.

    The control plane acts only on what it has {e detected}: between a
    link dying and the hello timeout expiring, traffic still drops on
    the dead link.  That detection window plus the recompute delay is
    the convergence time E29 measures; which evidence the control plane
    trusts — hellos alone or the data plane too — is the choice E30
    contrasts. *)

(** Which evidence the control plane acts on. *)
type detector =
  | Hello_only
      (** hello liveness alone: every believed-state flip recomputes *)
  | Verified
      (** hellos plus the data-plane detector (4 virtual probes per
          adjacency direction every {!probe_interval}, window 4, down
          at <= 50% delivered, up at >= 90%), transit probes with a
          300 ms deadline and two-strike quarantine (2 s base hold,
          doubled per re-detection), and flap damping (penalty 1 per
          flip, 1 s half-life, suppress at 2.5, reuse at 0.5) *)

val hello_interval : float
(** Seconds between liveness samples: 50 ms. *)

val hellos_missed : int
(** Consecutive missed hellos before a link is declared down: 2. *)

val recompute_delay : float
(** Control-plane delay between detection and new tables taking effect
    (SPF computation + flooding, coalescing bursts): 100 ms.  With the
    hello constants, detection + installation takes roughly 200 ms. *)

val probe_interval : float
(** Seconds between {!Verified} probe batches: 50 ms. *)

val probe_id_base : int
(** Transit-probe packets carry ids from this range (900 000 000 and
    up) so observers and tests can separate them from scenario
    traffic.  Scenario flows must stay below it. *)

type t

val attach :
  ?detector:detector ->
  ?metric:[ `Latency | `Hops ] ->
  until:float ->
  Tussle_netsim.Engine.t ->
  Tussle_netsim.Net.t ->
  t
(** [attach ~until engine net] computes initial tables from the net's
    link graph by [metric] (default [`Latency]), installs them, and
    schedules hello ticks every {!hello_interval} up to simulation time
    [until] (after which the control plane goes quiet, so the engine
    can drain — chaos scenarios rely on this bound).  With
    [~detector:Verified] (default {!Hello_only}), probe batches tick
    every {!probe_interval}, stopping early enough that every probe
    deadline also lands before [until].  Raises [Invalid_argument] on
    a non-finite [until] or one in the past.

    The topology is fixed at attach: the watched adjacencies and, for
    [Verified], each node's neighbours (the transit prober's sources,
    destinations and waypoints) are read from the link graph once.
    Links added to the graph later are never watched or probed. *)

val table : t -> Linkstate.t
(** The currently installed forwarding table. *)

val believed_down : t -> (int * int) list
(** Adjacencies currently withdrawn, in watch order: hello-declared
    down, data-plane-declared down, damping-suppressed, or incident to
    a quarantined node (what the control plane believes, which lags
    ground truth by the detection window). *)

val reconvergences : t -> int
(** Number of table recomputations installed so far (a down {e and}
    the later restore each count one; bursts coalesce). *)

val reconvergence_times : t -> float list
(** Simulation times at which new tables took effect, oldest first.
    E29's convergence time is [install_time - fault_time]. *)

val detections : t -> ((int * int) * [ `Down | `Up ] * float) list
(** Every liveness-state flip a detector declared, oldest first —
    hello and data-plane verdicts interleaved. *)

val suppressions : t -> int
(** Times any adjacency entered damping hold-down. *)

(** The data-plane detector's sliding window, exposed so tests can
    check it against a reference. *)
module Window : sig
  type t

  val create : int -> t
  (** [create w]: an empty window over the last [w] samples.  Raises
      [Invalid_argument] if [w < 1]. *)

  val push : t -> delivered:int -> offered:int -> unit
  (** Add a sample, evicting the oldest once [w] are held. *)

  val ratio : t -> float
  (** Delivered over offered, summed over the window; [1.] when
      nothing was offered. *)
end
