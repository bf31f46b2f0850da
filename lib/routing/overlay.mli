(** Overlay routing: end systems route around the network's choices.

    The paper calls overlays "a tool in the tussle" (§V-A4, footnote 7):
    end-users over-rule constrained provider routing with tunnels and
    relays (RON-style).  The overlay does not see the underlay's
    internals; it only {e measures} — so a relay choice takes a probe:
    [can_reach] says whether the underlay currently carries traffic
    between two overlay nodes. *)

val reachable_via :
  can_reach:(int -> int -> bool) -> candidates:int list ->
  src:int -> dst:int -> int option
(** First candidate [r] (ascending) with [can_reach src r] and
    [can_reach r dst]: connectivity restored through a willing
    intermediary even when [can_reach src dst] is false — "exploiting
    hosts as intermediate forwarding agents." *)

val path_alive :
  Linkstate.t ->
  Tussle_netsim.Link.t Tussle_prelude.Graph.t ->
  src:int -> dst:int -> bool
(** What an overlay liveness probe measures against a static underlay:
    the underlay's chosen path exists {e and} every link along it is
    currently up.  [false] the instant a link on the path dies — the
    overlay notices failures at probe speed, long before (or instead
    of) the underlay's control plane re-converging. *)

val failover_waypoints :
  can_reach:(int -> int -> bool) -> candidates:int list ->
  src:int -> dst:int -> int list option
(** The overlay's per-packet routing decision, recomputed every time
    liveness changes: [Some []] while the direct path is alive (no
    detour), [Some [r]] when it is dead but a relay [r] has both legs
    alive ({!reachable_via}), [None] when no relay can help.  The
    result plugs straight into a packet's loose source route. *)
