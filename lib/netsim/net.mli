(** The packet-level network: links + forwarding + middleboxes.

    [Net] wires a link graph to a forwarding policy and executes packet
    transit on a discrete-event {!Engine}.  Middleboxes attached to nodes
    inspect every packet transiting that node (including source and
    destination nodes — a host firewall is a middlebox at the host).

    Loose source routes are honoured: a packet with waypoints is routed
    toward each waypoint in turn using the same forwarding tables, which
    is exactly how user-selected provider-level routes ride on top of
    provider-selected routing (§V-A4).

    A net keeps no per-packet record: {!on_complete} observers see each
    packet's fate, and the flight recorder's ["hop"] events its route. *)

type drop_reason =
  | No_route  (** forwarding returned no next hop *)
  | Queue_full of int * int  (** link (u, v) dropped it *)
  | Filtered of string * int  (** middlebox name, node *)
  | Ttl_exceeded
  | Link_down of int * int  (** injected fault: link (u, v) was down *)
  | Fault_loss of int * int  (** injected fault: lost on the wire (u, v) *)
  | Corrupted of int * int  (** injected fault: damaged crossing (u, v) *)
  | Gray_loss of int * int
      (** injected gray failure: dropped on (u, v) while the link kept
          answering liveness probes *)
  | Blackholed of int
      (** Byzantine discard: the node silently ate transit traffic
          while answering hellos — distinct from [Filtered] so covert
          middlebox failure and Byzantine forwarding are separable in
          {!losses} *)
(** Why a packet died.  This type is the drop taxonomy: every consumer
    (experiments, chaos invariants, signatures, [tussle explain])
    matches its constructors.  The string form ({!drop_reason_label})
    exists only for artifacts that print or serialize a drop. *)

val is_fault_drop : drop_reason -> bool
(** [true] exactly for the five injected-fault reasons: [Link_down],
    [Fault_loss], [Corrupted], [Gray_loss] and [Blackholed].  The
    reasons a healthy network also produces (no route, full queue,
    ttl, a middlebox filter) are not — including the [Filtered] drop of
    an injected [Middlebox_break], which names the device instead. *)

type outcome =
  | Delivered of { latency : float; degraded : bool }
  | Lost of drop_reason

type forwarding = node:int -> target:int -> Packet.t -> int option
(** Next hop from [node] toward [target] for this packet, or [None]. *)

type t

val create : Link.t Tussle_prelude.Graph.t -> forwarding -> t
(** [create links fwd].  A packet is dropped [Ttl_exceeded] at the
    64th node it reaches (the source counting as the first) unless that
    node delivers it, so it crosses at most 63 links. *)

val set_forwarding : t -> forwarding -> unit
(** Swap the forwarding function mid-run.  Packets already in flight
    consult the new tables at their {e next} hop — exactly how a
    re-converged control plane behaves.  The swap takes effect for the
    event that runs after it; it never reorders scheduled events. *)

val add_middlebox : t -> int -> Middlebox.t -> unit
(** Attach a middlebox at a node; multiple middleboxes run in attachment
    order.  Raises [Invalid_argument "Net.add_middlebox: node out of
    range"] for a node outside the link graph. *)

val middleboxes_at : t -> int -> Middlebox.t list
(** The node's middleboxes in attachment order.  Raises
    [Invalid_argument] for a node outside the link graph. *)

val set_blackhole : t -> int -> bool -> unit
(** Mark (or unmark) a node as Byzantine: it keeps accepting traffic
    addressed to itself — and keeps answering control-plane hellos,
    which never transit it — but silently discards every packet it
    would forward for others (source-route waypoints included, which
    is exactly how transit probes unmask it).  Raises [Invalid_argument
    "Net.set_blackhole: node out of range"] for a node outside the link
    graph. *)

val inject : t -> Engine.t -> Packet.t -> unit
(** Offer a packet to the network at the engine's current time.  Its
    outcome goes to the {!on_complete} observers when transit completes
    (run the engine).  Raises [Invalid_argument] while a packet with
    the same id is in flight; a completed packet's id may be reused. *)

val on_complete : t -> (Packet.t -> outcome -> unit) -> unit
(** Register a completion observer, called (in registration order) the
    moment any packet's transit completes — while the engine is still
    running, so observers can schedule follow-up events (ACKs,
    retransmissions).  Observers also see probe traffic; filter by
    packet id.  An observer registered after a packet completes never
    sees it. *)

val injected_count : t -> int
(** Packets offered via {!inject} over the net's lifetime.  With
    {!in_flight}, the packet-conservation ledger the chaos invariants
    check: [injected_count = delivered + lost + in_flight]. *)

val in_flight : t -> int
(** Packets injected whose transit has not yet completed (their
    arrival events are still in the engine's queue). *)

val delivered_count : t -> int

val lost_count : t -> int

val delivery_ratio : t -> float
(** Delivered / completed; [0.] when nothing completed. *)

val losses : t -> (drop_reason * int) list
(** The typed loss ledger: one entry per distinct reason (constructor
    and location), with its count, sorted.  When
    {!Tussle_obs.Metrics} is enabled every completion also bumps a
    per-reason counter
    ([net.delivered], [net.drops.no_route], [net.drops.queue_full],
    [net.drops.filtered], [net.drops.ttl_exceeded],
    [net.drops.link_down], [net.drops.fault_loss],
    [net.drops.corrupted], [net.drops.gray_loss],
    [net.drops.blackholed]), attributing drops to their fault. *)

val count_losses : (drop_reason -> bool) -> (drop_reason * int) list -> int
(** [count_losses p ledger] sums the counts of the reasons matching
    [p], e.g. [count_losses is_fault_drop (losses net)]. *)

val losses_by_label : (drop_reason * int) list -> (string * int) list
(** The label view of a ledger, for artifacts only: counts summed per
    {!drop_reason_label} (so one label gathers every location), sorted
    by label. *)

val links : t -> Link.t Tussle_prelude.Graph.t

val drop_reason_label : drop_reason -> string
(** The stable artifact label of a reason, one per constructor:
    [no-route], [queue-full], [filtered:NAME], [ttl-exceeded],
    [link-down], [fault-loss], [corrupted], [gray-loss] and
    [blackholed].  Written into flight records, narratives and JSON;
    never matched on outside this module. *)

val drop_of_flight : Tussle_obs.Flight.event -> drop_reason option
(** Decode a flight-recorder ["drop"] event back into its reason: the
    inverse of the record [Net] writes when a packet dies.  The detail
    label gives the kind, [node]/[peer] the location (link [(node,
    peer)], or node [node]); [filtered:NAME] decodes to
    [Filtered (NAME, node)], whatever NAME contains.  [None] for any
    other event kind or an unknown label. *)
