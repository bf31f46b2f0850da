(** The per-domain event ring behind {!Trace} and {!Flight}.

    Each domain records into its own ring of {!capacity} slots,
    created on the domain's first {!push}.  When a ring is full the
    oldest event is overwritten and counted by {!dropped}.  Pushes
    touch only the calling domain's ring; a mutex guards ring
    registration, {!reset}, {!events} and {!dropped}.

    The ring itself never checks its enabled flag: callers test
    {!flag} first, so the disabled path costs one atomic load. *)

type 'a t

val capacity : int
(** Slots in each domain's ring: 65536. *)

val create : compare:('a -> 'a -> int) -> 'a t
(** A disabled ring set whose {!events} are sorted by [compare]. *)

val flag : 'a t -> bool Atomic.t
(** The enabled flag ([false] until {!enable}). *)

val enable : 'a t -> unit
(** Set the flag. *)

val disable : 'a t -> unit

val pushed : 'a t -> int
(** Events pushed by the calling domain since the last {!reset}. *)

val push : 'a t -> 'a -> unit
(** Record one event in the calling domain's ring. *)

val reset : 'a t -> unit
(** Empty every ring and zero its counts; the flag is unchanged.
    Costs O(retained events), not O(capacity). *)

val events : 'a t -> 'a list
(** Every retained event, merged across domains, sorted.  Costs
    O(retained events), not O(capacity): only written slots are read. *)

val dropped : 'a t -> int
(** Events overwritten since the last {!reset}. *)
