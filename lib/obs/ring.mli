(** The process's per-domain registry, and the event ring behind
    {!Trace} and {!Flight}.

    A {!local} holds one value per domain, made on that domain's first
    {!here} and registered under the local's mutex.  The hot path reads
    and writes the calling domain's value with no lock and no atomic;
    only registration and {!fold} take the mutex.  A ring set is a
    local of rings; {!Metrics} keeps each handle's cells in one.

    Each domain records into its own ring of {!capacity} slots,
    created on the domain's first {!push}.  When a ring is full the
    oldest event is overwritten and counted by {!dropped}.

    The ring itself never checks its enabled flag: callers test
    {!flag} first, so the disabled path costs one atomic load. *)

type 'a local

val local : (unit -> 'a) -> 'a local
(** [local make]: a value per domain, [make ()] on the domain's first
    {!here}. *)

val here : 'a local -> 'a
(** The calling domain's value: one [Domain.DLS.get] once made. *)

val fold : 'a local -> ('acc -> 'a -> 'acc) -> 'acc -> 'acc
(** Fold every domain's value, oldest registered first, under the
    local's mutex.  Values a domain is still writing may be read
    stale; fold at a quiescent point. *)

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
