(** Flow-level flight recorder: the causal lifecycle of every packet
    and transfer, replayable into a narrative.

    {!Metrics} says {e what} happened per experiment; [Flight] records
    {e why} an individual packet died or a transfer gave up.  The
    instrumented subsystems ([Net], [Link], [Transport], [Middlebox],
    [Selfheal], fault injection) emit one {!event} per causal step —
    inject, per-hop forward with queue depth, middlebox transform,
    drop with its reason, retransmission-timer decision, deliver /
    abandon, fault-episode open/close, control-plane reconvergence —
    keyed by a {e flow id}.

    Discipline matches {!Metrics} and {!Trace}: off by default; the
    disabled path is one atomic load and a branch at each call site
    (callers guard with {!enabled} before building any argument, so
    nothing is allocated); events land in per-domain ring buffers of
    {!Ring.capacity} events (bounded memory — the newest events win)
    behind [Domain.DLS], with a mutex only around ring registration,
    {!reset} and {!events}.

    Flow-id namespaces: non-negative ids are packet ids (the
    [Packet.t.id] the traffic generator assigned); {!control_flow}
    ([-1]) is the control-plane/fault stream; ids [<= -2] (from
    {!new_flow}) name transfers.  One [Flight.events] stream therefore
    interleaves data plane, transport decisions, and control plane in
    simulated-time order. *)

type event = {
  seq : int;  (** per-domain push index; total order within a domain *)
  sim_t : float;  (** simulated engine time of the step *)
  flow : int;  (** packet id, transfer id ([<= -2]), or {!control_flow} *)
  kind : string;  (** step kind, e.g. ["inject"], ["hop"], ["drop"] *)
  node : int;  (** primary location (node, or link endpoint u); -1 n/a *)
  peer : int;  (** link endpoint v / associated id; -1 when n/a *)
  detail : string;  (** reason label, middlebox name, episode text, … *)
  value : float;  (** queue depth, RTO, latency, attempt count, … *)
}

val enable : unit -> unit
(** Switch the recorder on. *)

val disable : unit -> unit

val enabled : unit -> bool

val reset : unit -> unit
(** Clear every ring and restart the {!new_flow} counter.  Call before
    a replay so the stream contains exactly that run. *)

val control_flow : int
(** [-1]: the flow id shared by control-plane and fault-episode events. *)

val new_flow : unit -> int
(** Fresh transfer flow id: [-2, -3, ...] per {!reset}.  Callers
    should only draw one while {!enabled}; disabled transfers carry
    {!control_flow} and emit nothing. *)

val emit :
  sim_t:float ->
  flow:int ->
  node:int ->
  peer:int ->
  detail:string ->
  value:float ->
  string ->
  unit
(** [emit ~sim_t ~flow ~node ~peer ~detail ~value kind] records one
    causal step in the calling domain's ring.  No-op while disabled —
    but call sites must still guard with {!enabled} so argument
    construction costs nothing on the disabled path. *)

val events : unit -> event list
(** Every retained event, merged across domains, ordered by
    [(sim_t, seq)].  In a single-domain run (how [tussle explain]
    replays) this is exactly emission order. *)

val dropped : unit -> int
(** Events overwritten by ring wrap-around since the last {!reset}. *)
