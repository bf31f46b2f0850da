(** In-network content caching: enhancing the mature application
    (§VI-A).

    "The desire to improve important applications (e.g., the Web),
    leads to the deployment of caches, mirror sites, kludges to the DNS
    and so on ... and an increasing focus on improving existing
    applications at the expense of new ones."

    A cache sits at a node and serves known application content
    locally.  Crucially, it only understands the {e mature} protocol it
    was built for: requests from a new application pass through
    untouched, so the optimization widens the performance gap between
    incumbent and newcomer — the innovation-barrier effect E20
    measures.  Encrypted content cannot be cached either (the same
    §VI-A tension: the ISP's enhancement needs to peek). *)

type t

val create : app:Packet.app -> t
(** A cache for one application's content, holding up to 25 distinct
    objects (LRU eviction). *)

val lookup : t -> key:int -> bool
(** Is the object present?  A hit makes it the most recently used. *)

val insert : t -> key:int -> unit
(** Add an object (evicting the least recently used if full). *)

val size : t -> int

val serves : t -> Packet.t -> bool
(** Can this cache serve this packet's request?  True only when the
    packet's application matches, the payload is not end-to-end
    encrypted, and the object (keyed by the packet's destination and
    port) is cached.  A miss inserts the object, modelling
    fetch-and-store. *)
