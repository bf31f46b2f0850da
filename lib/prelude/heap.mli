(** A binary min-heap of ints ordered by (float key, push order),
    internal to [tussle_prelude]: the event queue {!Pqueue} stores a
    payload slot in it and {!Graph}'s Dijkstra frontier a node.

    The heap is three parallel arrays, so a sift moves only unboxed
    floats and ints: no polymorphic access, no write barrier.  Equal
    keys pop in push order.  The arrays grow by doubling and never
    shrink.  The fields are readable so a hot loop can test [size] and
    read the root ([keys.(0)], [vals.(0)]) without a call. *)

type t = private {
  mutable keys : float array;
  mutable seqs : int array;  (** push order, counted from the last [clear] *)
  mutable vals : int array;
  mutable size : int;
  mutable next_seq : int;
}

val create : unit -> t

val copy : t -> t
(** An independent heap with the same entries and push count. *)

val clear : t -> unit
(** Empty the heap and restart the push count; the arrays are kept. *)

val push : t -> float -> int -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val push_keyed : t -> float array -> int -> unit
(** [push_keyed h keys v] is [push h keys.(v) v], but the key is read
    from the array inside the call: a float passed as an argument to a
    call that is not inlined is boxed, and a Dijkstra relaxation
    computes its key unboxed. *)

val pop : t -> unit
(** Remove the root, the entry of least (key, push order).  The heap
    must not be empty. *)
