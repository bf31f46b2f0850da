(** Traffic generation: reproducible synthetic workloads.

    Allocates globally unique packet ids per generator and schedules
    constant-rate injections on the engine. *)

type t
(** A packet-id allocator. *)

val create : unit -> t

val fresh_id : t -> int

val next_packet :
  t ->
  ?port:int ->
  ?app:Packet.app ->
  ?qos:Packet.qos ->
  ?encrypted:bool ->
  ?tunneled:bool ->
  ?source_route:int list ->
  ?size_bytes:int ->
  src:int ->
  dst:int ->
  created:float ->
  unit ->
  Packet.t
(** Fresh packet with the next id. *)

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
