(** Fault isolation when transparency fails (§VI-A).

    "Failures of transparency will occur — design what happens then ...
    Tools for fault isolation and error reporting would help ... Of
    course, some devices that impair transparency may intentionally
    give no error information or even reveal their presence, and that
    must be taken into account in design of diagnostic tools."

    The diagnostic walks the path with probes (traceroute-style).  A
    {e revealing} middlebox that drops the probe names itself — exact
    localization in one probe.  A {e covert} one just eats packets, and
    the best the tool can do is bracket the failure between the last
    node that answered and the first that did not. *)

type probe_result =
  | Reached  (** probe delivered to its target *)
  | Reported_block of string * int  (** a revealing device named itself *)
  | Lost  (** silent loss: covert filter, or genuine outage *)

type verdict =
  | Clean  (** destination reachable; nothing to isolate *)
  | Blocked_at of string * int  (** exact: a device confessed *)
  | Blocked_between of int * int
      (** covert: bracketed between these consecutive path nodes *)
  | Unreachable_at_start  (** even the first hop is silent *)

val verdict_string : verdict -> string
(** One line for a table cell, e.g. [device "port-filter" confessed at
    node 3] or [bracketed between nodes 2 and 3]. *)

type report = { verdict : verdict; probes_used : int }

val localize : probe:(int -> probe_result) -> path:int list -> report
(** [localize ~probe ~path]: [path] is the node sequence the traffic
    should take, source first, destination last.  [probe n] tests
    reachability of node [n] with a packet of the affected kind.  The
    tool first probes the destination (cheap happy path / confession),
    then scans for the silent boundary.  Raises [Invalid_argument] on a
    path shorter than 2 nodes. *)

val net_probe :
  Net.t -> Engine.t -> make:(target:int -> Packet.t) -> int -> probe_result
(** Probe adapter for the simulator.  [net_probe net engine ~make]
    registers one {!Net.on_complete} observer, so apply it once and
    reuse the probe.  Each probe injects [make ~target], runs the
    engine to quiescence, and classifies the outcome of the very packet
    it injected, whatever its id.
    Middlebox drops map to [Reported_block] when the device reveals its
    presence (per {!Middlebox.reveals_presence} of the deployed
    middleboxes at the drop node), [Lost] otherwise. *)
