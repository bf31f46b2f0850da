(** Mutable binary-heap priority queue (min-heap by a float key).

    Used as the event queue of the discrete-event simulator; the heap
    half of {!Graph}'s shortest-path frontier is the same heap on node
    ids.
    Ties are broken by insertion order (FIFO among equal keys), which
    discrete-event simulation requires for determinism.

    The heap holds parallel key/seq/slot arrays and the payloads sit in
    a slot store: a push writes its payload into a free slot once and
    the heap sifts only floats and ints (key, insertion order, slot
    number), so a push allocates nothing once the arrays have grown
    and no sift level touches a payload.  The [min_key]/[pop_min] accessors let a hot
    loop drain the queue without building option/tuple cells.  A pop
    clears its slot and frees it for reuse, so the queue never retains
    a popped value. *)

type 'a t

val create : unit -> 'a t
(** Empty queue with float keys; its arrays grow by doubling. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q key v] inserts [v] with priority [key]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-key element, FIFO among ties. *)

val min_key : 'a t -> float
(** Key of the minimum element without removal.  Raises
    [Invalid_argument] on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove the minimum element and return its payload alone (no
    option/tuple allocation); read [min_key] first if the key is
    needed.  Raises [Invalid_argument] on an empty queue. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive drain: all elements in pop order. *)
