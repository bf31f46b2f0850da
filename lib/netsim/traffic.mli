(** Traffic generation: reproducible synthetic workloads.

    Allocates globally unique packet ids per generator and schedules
    constant-rate injections on the engine. *)

type t
(** A packet-id allocator. *)

val create : unit -> t

val fresh_id : t -> int
(** The next id: 0, 1, 2, ... per generator.  A packet is built with
    [Packet.make ~id:(fresh_id gen) ...]. *)

val constant_flow :
  t ->
  Engine.t ->
  Net.t ->
  start:float ->
  interval:float ->
  count:int ->
  make:(t -> created:float -> Packet.t) ->
  unit
(** Schedule [count] packets at fixed spacing [interval], the [k]th
    (from 0) at [start +. float k *. interval], in order of [k].  Each
    is built by [make] and injected when its event fires.  Raises
    [Invalid_argument] on a negative [interval]. *)
