(** The per-domain event ring behind {!Trace} and {!Flight}.

    Each domain records into its own fixed-capacity ring, created on
    the domain's first {!push} at the capacity current at that moment
    (rings already registered keep their size).  When a ring is full
    the oldest event is overwritten and counted by {!dropped}.  Pushes
    touch only the calling domain's ring; a mutex guards ring
    registration, {!reset}, {!events} and {!dropped}.

    The ring itself never checks its enabled flag: callers test
    {!flag} first, so the disabled path costs one atomic load. *)

type 'a t

val create : compare:('a -> 'a -> int) -> 'a t
(** A disabled ring set whose {!events} are sorted by [compare]. *)

val flag : 'a t -> bool Atomic.t
(** The enabled flag ([false] until {!enable}). *)

val enable : 'a t -> ?capacity:int -> unit -> unit
(** Set the flag.  [capacity] (default 65536, at least 1) sizes rings
    created from now on. *)

val disable : 'a t -> unit

val pushed : 'a t -> int
(** Events pushed by the calling domain since the last {!reset}. *)

val push : 'a t -> 'a -> unit
(** Record one event in the calling domain's ring. *)

val reset : 'a t -> unit
(** Empty every ring and zero its counts; the flag is unchanged. *)

val events : 'a t -> 'a list
(** Every retained event, merged across domains, sorted. *)

val dropped : 'a t -> int
(** Events overwritten since the last {!reset}. *)
