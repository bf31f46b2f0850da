(** Compile a {!Plan} into timed engine events against a live net.

    [install] walks the plan in order, derives any rng streams it needs
    from the given seed (one {!Tussle_prelude.Rng.split} per stochastic
    episode, in plan order — so equal seed + plan means equal streams),
    and schedules one engine event at each of the episode's
    {!Plan.toggles}, which turns its effect on or off (a link down or
    up, a probability or latency set or cleared, a bit or device
    flipped), so [Engine.pending] on a fresh engine grows by
    {!Plan.transitions}.  Faults then take
    effect as the simulation crosses their windows; drops they cause
    land in the typed ledger {!Tussle_netsim.Net.losses} and the
    [net.drops.*] metrics.  [Link_down], [Node_crash],
    [Unidirectional_down] and [Link_flap] drop as [Net.Link_down],
    [Link_loss] as [Fault_loss], [Link_corrupt] as [Corrupted],
    [Gray_loss] as [Gray_loss] and [Blackhole] as [Blackholed]: the
    five reasons {!Tussle_netsim.Net.is_fault_drop} accepts.
    [Middlebox_break] drops as [Filtered] under the device's name.

    Link episodes apply to {e every} link between the two endpoints in
    both directions (deduplicated by physical identity, so a shared
    undirected label is set once) — except [Unidirectional_down], which
    touches only the links carrying u->v traffic.  Episodes targeting
    the same link should not overlap in time: each window restores the
    link's baseline when it closes, so the last writer wins.

    Every toggle lands in the flight recorder as its own fault-open
    (on) or fault-close (off) event, so a flap's down/up cycles are
    each visible.  [Gray_loss] draws per-packet from
    its own split stream, like [Link_loss] — but drops while the link's
    control-plane view stays up.  [Blackhole] flips the net's Byzantine
    bit for the node: hellos keep flowing, transit traffic silently
    dies, attributed as [Blackholed].

    [Middlebox_break] attaches a device named
    {!Plan.broken_device_name} at the node immediately (it forwards
    everything until its window opens, then drops everything until it
    closes).  A covert break hides from probes
    ([reveals_presence = false]); a revealing one confesses — the
    §VI-A failure-visibility axis E28 measures. *)

val install :
  seed:int ->
  plan:Plan.t ->
  Tussle_netsim.Engine.t ->
  Tussle_netsim.Net.t ->
  unit
(** Raises [Invalid_argument] if the plan fails {!Plan.validate}, if an
    episode names a link absent from the net, a node out of range, or
    if a window opens before the engine's current time. *)
