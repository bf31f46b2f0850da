module Graph = Tussle_prelude.Graph
module Metrics = Tussle_obs.Metrics
module Flight = Tussle_obs.Flight

type drop_reason =
  | No_route
  | Queue_full of int * int
  | Filtered of string * int
  | Ttl_exceeded
  | Link_down of int * int
  | Fault_loss of int * int
  | Corrupted of int * int
  | Gray_loss of int * int
  | Blackholed of int

type outcome =
  | Delivered of { latency : float; degraded : bool }
  | Lost of drop_reason

type forwarding = node:int -> target:int -> Packet.t -> int option

(* A packet's state while in flight.  Each hop's arrival event carries
   it, so the [transits] table is touched only at inject and finish.
   [hops] counts the nodes reached so far, for the ttl check. *)
type transit = {
  mutable waypoints : int list;
  mutable degraded : bool;
  mutable hops : int;
}

type t = {
  links : Link.t Graph.t;
  (* mutable so a control plane can re-converge mid-run (self-healing
     routing swaps in fresh tables while packets are in flight) *)
  mutable forwarding : forwarding;
  (* Per node, so a hop hashes nothing; each stays [||] until its first
     entry is set, so a net with neither allocates no per-node state. *)
  mutable middleboxes : Middlebox.t list array;
  (* Byzantine nodes: answer hellos and accept traffic addressed to
     themselves, silently discard everything they'd forward for others *)
  mutable blackholes : bool array;
  transits : (int, transit) Hashtbl.t;
  mutable injected : int;
  (* tallies of the completed packets, kept as packets finish *)
  mutable delivered : int;
  mutable lost : int;
  ledger : (drop_reason, int ref) Hashtbl.t;
  mutable observers : (Packet.t -> outcome -> unit) list; (* in order *)
}

(* hop bound: a packet is dropped at the [ttl]-th node it reaches, the
   source counting as the first, unless that node delivers it *)
let ttl = 64

let create links forwarding =
  {
    links;
    forwarding;
    middleboxes = [||];
    blackholes = [||];
    transits = Hashtbl.create 64;
    injected = 0;
    delivered = 0;
    lost = 0;
    ledger = Hashtbl.create 8;
    observers = [];
  }

let set_forwarding t forwarding = t.forwarding <- forwarding

let check_node t node name =
  if node < 0 || node >= Graph.node_count t.links then
    invalid_arg (name ^ ": node out of range")

(* [node] is a node of the link graph. *)
let middleboxes t node =
  if node < Array.length t.middleboxes then t.middleboxes.(node) else []

let is_blackhole t node =
  node < Array.length t.blackholes && t.blackholes.(node)

let add_middlebox t node mb =
  check_node t node "Net.add_middlebox";
  if Array.length t.middleboxes = 0 then
    t.middleboxes <- Array.make (Graph.node_count t.links) [];
  t.middleboxes.(node) <- t.middleboxes.(node) @ [ mb ]

let middleboxes_at t node =
  check_node t node "Net.middleboxes_at";
  middleboxes t node

let set_blackhole t node on =
  check_node t node "Net.set_blackhole";
  if Array.length t.blackholes = 0 then
    t.blackholes <- Array.make (Graph.node_count t.links) false;
  t.blackholes.(node) <- on

(* Per-reason drop attribution (handles interned once; each incr is an
   atomic load and a branch while telemetry is disabled). *)
let m_drop_no_route = Metrics.counter "net.drops.no_route"
let m_drop_queue_full = Metrics.counter "net.drops.queue_full"
let m_drop_filtered = Metrics.counter "net.drops.filtered"
let m_drop_ttl = Metrics.counter "net.drops.ttl_exceeded"
let m_drop_link_down = Metrics.counter "net.drops.link_down"
let m_drop_fault_loss = Metrics.counter "net.drops.fault_loss"
let m_drop_corrupted = Metrics.counter "net.drops.corrupted"
let m_drop_gray_loss = Metrics.counter "net.drops.gray_loss"
let m_drop_blackholed = Metrics.counter "net.drops.blackholed"
let m_delivered = Metrics.counter "net.delivered"

let filtered_prefix = "filtered:"

let drop_reason_label = function
  | No_route -> "no-route"
  | Queue_full _ -> "queue-full"
  | Filtered (name, _) -> filtered_prefix ^ name
  | Ttl_exceeded -> "ttl-exceeded"
  | Link_down _ -> "link-down"
  | Fault_loss _ -> "fault-loss"
  | Corrupted _ -> "corrupted"
  | Gray_loss _ -> "gray-loss"
  | Blackholed _ -> "blackholed"

let is_fault_drop = function
  | Link_down _ | Fault_loss _ | Corrupted _ | Gray_loss _ | Blackholed _ ->
    true
  | No_route | Queue_full _ | Filtered _ | Ttl_exceeded -> false

let count_outcome = function
  | Delivered _ -> Metrics.incr m_delivered
  | Lost No_route -> Metrics.incr m_drop_no_route
  | Lost (Queue_full _) -> Metrics.incr m_drop_queue_full
  | Lost (Filtered _) -> Metrics.incr m_drop_filtered
  | Lost Ttl_exceeded -> Metrics.incr m_drop_ttl
  | Lost (Link_down _) -> Metrics.incr m_drop_link_down
  | Lost (Fault_loss _) -> Metrics.incr m_drop_fault_loss
  | Lost (Corrupted _) -> Metrics.incr m_drop_corrupted
  | Lost (Gray_loss _) -> Metrics.incr m_drop_gray_loss
  | Lost (Blackholed _) -> Metrics.incr m_drop_blackholed

(* Flight-recorder terminus: one event per completed transit, located
   at the node (or link) where the packet's fate was decided. *)
let record_finish ~now ~at p outcome =
  match outcome with
  | Delivered { latency; degraded } ->
    Flight.emit ~sim_t:now ~flow:p.Packet.id ~node:at ~peer:(-1)
      ~detail:(if degraded then "degraded" else "")
      ~value:latency "deliver"
  | Lost reason ->
    let node, peer =
      match reason with
      | No_route | Ttl_exceeded -> (at, -1)
      | Queue_full (u, v) | Link_down (u, v) | Fault_loss (u, v)
      | Corrupted (u, v) | Gray_loss (u, v) ->
        (u, v)
      | Filtered (_, n) | Blackholed n -> (n, -1)
    in
    Flight.emit ~sim_t:now ~flow:p.Packet.id ~node ~peer
      ~detail:(drop_reason_label reason) ~value:0.0 "drop"

(* The inverse of the "drop" record above: the label names the kind,
   the node/peer fields restore its location. *)
let drop_of_flight (e : Flight.event) =
  if e.Flight.kind <> "drop" then None
  else
    let u = e.Flight.node and v = e.Flight.peer and label = e.Flight.detail in
    if String.starts_with ~prefix:filtered_prefix label then
      let n = String.length filtered_prefix in
      Some (Filtered (String.sub label n (String.length label - n), u))
    else
      List.find_opt
        (fun r -> drop_reason_label r = label)
        [ No_route; Queue_full (u, v); Ttl_exceeded; Link_down (u, v);
          Fault_loss (u, v); Corrupted (u, v); Gray_loss (u, v);
          Blackholed u ]

let tally_outcome t = function
  | Delivered _ -> t.delivered <- t.delivered + 1
  | Lost reason -> (
    t.lost <- t.lost + 1;
    match Hashtbl.find t.ledger reason with
    | n -> incr n
    | exception Not_found -> Hashtbl.add t.ledger reason (ref 1))

(* [List.iter] would allocate a closure per packet. *)
let rec notify observers p outcome =
  match observers with
  | [] -> ()
  | observe :: rest ->
    observe p outcome;
    notify rest p outcome

let finish t ~now ~at p outcome =
  Hashtbl.remove t.transits p.Packet.id;
  count_outcome outcome;
  if Flight.enabled () then record_finish ~now ~at p outcome;
  tally_outcome t outcome;
  notify t.observers p outcome

let on_complete t observe = t.observers <- t.observers @ [ observe ]

(* Run the node's middleboxes; [Some reason] means the packet died here.
   Transforms (degrade, drop) land in the flight recorder; the
   drop's own terminus event carries the filtered reason, so only
   non-fatal transforms are emitted here. *)
let rec run_middleboxes ~now node p state = function
  | [] -> None
  | mb :: rest -> begin
    match Middlebox.decide mb p with
    | Middlebox.Forward -> run_middleboxes ~now node p state rest
    | Middlebox.Drop -> Some (Filtered (Middlebox.name mb, node))
    | Middlebox.Degrade ->
      state.degraded <- true;
      if Flight.enabled () then
        Flight.emit ~sim_t:now ~flow:p.Packet.id ~node ~peer:(-1)
          ~detail:(Middlebox.name mb) ~value:0.0 "mb-degrade";
      run_middleboxes ~now node p state rest
  end

let rec arrive t engine p state node =
  state.hops <- state.hops + 1;
  let now = Engine.now engine in
  match run_middleboxes ~now node p state (middleboxes t node) with
  | Some reason -> finish t ~now ~at:node p (Lost reason)
  | None ->
    (* a Byzantine node silently discards transit traffic — anything
       it would forward for others — while traffic it originates or
       terminates (hellos, packets addressed to it) flows normally *)
    if
      is_blackhole t node
      && node <> p.Packet.src && node <> p.Packet.dst
    then finish t ~now ~at:node p (Lost (Blackholed node))
    else begin
    (* consume a reached waypoint *)
    (match state.waypoints with
    | w :: rest when w = node -> state.waypoints <- rest
    | _ -> ());
    if node = p.Packet.dst && state.waypoints = [] then
      let latency = now -. p.Packet.created in
      finish t ~now ~at:node p
        (Delivered { latency; degraded = state.degraded })
    else if state.hops >= ttl then
      finish t ~now ~at:node p (Lost Ttl_exceeded)
    else
      let target =
        match state.waypoints with w :: _ -> w | [] -> p.Packet.dst
      in
      match t.forwarding ~node ~target p with
      | None -> finish t ~now ~at:node p (Lost No_route)
      | Some next -> begin
        match Graph.find_edge t.links node next with
        | None -> finish t ~now ~at:node p (Lost No_route)
        | Some link -> begin
          match Link.try_enqueue link ~now p.Packet.size_bytes with
          | `Dropped -> finish t ~now ~at:node p (Lost (Queue_full (node, next)))
          | `Faulted Link.Down ->
            finish t ~now ~at:node p (Lost (Link_down (node, next)))
          | `Faulted Link.Loss ->
            finish t ~now ~at:node p (Lost (Fault_loss (node, next)))
          | `Faulted Link.Corrupt ->
            finish t ~now ~at:node p (Lost (Corrupted (node, next)))
          | `Faulted Link.Gray ->
            finish t ~now ~at:node p (Lost (Gray_loss (node, next)))
          | `Sent arrival_time ->
            if Flight.enabled () then
              Flight.emit ~sim_t:now ~flow:p.Packet.id ~node ~peer:next
                ~detail:"" ~value:(float_of_int (Link.queue_length link))
                "hop";
            Engine.schedule engine arrival_time (fun engine ->
                arrive t engine p state next)
        end
      end
    end

let inject t engine p =
  if Hashtbl.mem t.transits p.Packet.id then
    invalid_arg "Net.inject: duplicate packet id in flight";
  t.injected <- t.injected + 1;
  let state =
    { waypoints = p.Packet.source_route; degraded = false; hops = 0 }
  in
  Hashtbl.replace t.transits p.Packet.id state;
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now engine) ~flow:p.Packet.id
      ~node:p.Packet.src ~peer:p.Packet.dst
      ~detail:(Packet.app_to_string p.Packet.app)
      ~value:(float_of_int p.Packet.size_bytes) "inject";
  Engine.schedule engine (Engine.now engine) (fun engine ->
      arrive t engine p state p.Packet.src)

let injected_count t = t.injected

let in_flight t = Hashtbl.length t.transits

let delivered_count t = t.delivered

let lost_count t = t.lost

let delivery_ratio t =
  let n = t.delivered + t.lost in
  if n = 0 then 0.0 else float_of_int t.delivered /. float_of_int n

(* Sum the counts of equal keys, sorted by key. *)
let tally keyed =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, n) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (cur + n))
    keyed;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let losses t =
  Hashtbl.fold (fun r n acc -> (r, !n) :: acc) t.ledger [] |> List.sort compare

let count_losses matches ledger =
  List.fold_left (fun acc (r, n) -> if matches r then acc + n else acc) 0 ledger

let losses_by_label ledger =
  tally (List.map (fun (r, n) -> (drop_reason_label r, n)) ledger)

let links t = t.links
