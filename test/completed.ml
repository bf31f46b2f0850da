(* Packet fates as the tests read them: [record] keeps every completion
   a [Net.on_complete] observer sees, and [route] reads the nodes a
   packet crossed from the flight recorder's events. *)

module Net = Tussle_netsim.Net
module Packet = Tussle_netsim.Packet
module Flight = Tussle_obs.Flight

(* [record net] registers an observer on [net] and returns a reader of
   every packet completed since, with its outcome, in completion order.
   Call it before running the engine. *)
let record net =
  let log = ref [] in
  Net.on_complete net (fun p o -> log := (p, o) :: !log);
  fun () -> List.rev !log

(* The outcome of the first completed packet with id [id], if any. *)
let outcome_of log id =
  List.find_map
    (fun ((p : Packet.t), o) -> if p.Packet.id = id then Some o else None)
    (log ())

(* Run [f] with the flight recorder on and empty; return its result
   and the events it recorded.  The recorder is off and empty again
   afterwards, also when [f] raises. *)
let with_flight f =
  Flight.enable ();
  Flight.reset ();
  Fun.protect
    ~finally:(fun () ->
      Flight.disable ();
      Flight.reset ())
    (fun () ->
      let r = f () in
      (r, Flight.events ()))

(* The nodes packet [id] crossed, in order: the node of each of its
   "hop" events, then the node of its "deliver" event.  A packet that
   was dropped has no last node. *)
let route events id =
  List.filter_map
    (fun e ->
      match e.Flight.kind with
      | ("hop" | "deliver") when e.Flight.flow = id -> Some e.Flight.node
      | _ -> None)
    events
