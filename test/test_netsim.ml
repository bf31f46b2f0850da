(* Tests for tussle.netsim: engine, packet, link, topology, middlebox,
   net, traffic. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Packet = Tussle_netsim.Packet
module Link = Tussle_netsim.Link
module Topology = Tussle_netsim.Topology
module Middlebox = Tussle_netsim.Middlebox
module Net = Tussle_netsim.Net
module Traffic = Tussle_netsim.Traffic

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Engine ---------- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e 2.0 (fun _ -> log := 2 :: !log);
  Engine.schedule e 1.0 (fun _ -> log := 1 :: !log);
  Engine.schedule e 3.0 (fun _ -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last" 3.0 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e 1.0 (fun _ -> log := "a" :: !log);
  Engine.schedule e 1.0 (fun _ -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "fifo" [ "a"; "b" ] (List.rev !log)

let test_engine_cascade () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick engine =
    incr count;
    if !count < 5 then Engine.schedule_after engine 1.0 tick
  in
  Engine.schedule e 0.0 tick;
  Engine.run e;
  Alcotest.(check int) "cascaded" 5 !count;
  check_float "final time" 4.0 (Engine.now e)

let test_engine_past_raises () =
  let e = Engine.create () in
  Engine.schedule e 5.0 (fun _ -> ());
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time in the past")
    (fun () -> Engine.schedule e 1.0 (fun _ -> ()))

let test_engine_until () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e 1.0 (fun _ -> log := 1 :: !log);
  Engine.schedule e 10.0 (fun _ -> log := 10 :: !log);
  Engine.run ~until:5.0 e;
  Alcotest.(check (list int)) "only early" [ 1 ] (List.rev !log);
  check_float "clock at horizon" 5.0 (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "later event fires" [ 1; 10 ] (List.rev !log);
  Alcotest.(check int) "queue drained" 0 (Engine.pending e)

let test_engine_until_drained () =
  (* Regression: when the queue emptied before the horizon, the clock
     used to stay at the last event time instead of advancing to
     [until], inconsistently with the beyond-horizon branch. *)
  let e = Engine.create () in
  Engine.schedule e 1.0 (fun _ -> ());
  Engine.run ~until:5.0 e;
  check_float "clock at horizon after drain" 5.0 (Engine.now e);
  let e2 = Engine.create () in
  Engine.run ~until:3.0 e2;
  check_float "clock at horizon on empty queue" 3.0 (Engine.now e2)

let test_engine_until_never_backwards () =
  let e = Engine.create () in
  Engine.schedule e 4.0 (fun _ -> ());
  Engine.run e;
  Engine.run ~until:2.0 e;
  check_float "earlier horizon is a no-op" 4.0 (Engine.now e)

let test_engine_queue_high_water () =
  let e = Engine.create () in
  Alcotest.(check int) "fresh engine" 0 (Engine.queue_depth_high_water e);
  Engine.schedule e 1.0 (fun _ -> ());
  Engine.schedule e 2.0 (fun _ -> ());
  Engine.schedule e 3.0 (fun _ -> ());
  Alcotest.(check int) "peak is queue depth" 3 (Engine.queue_depth_high_water e);
  Engine.run e;
  Alcotest.(check int) "draining keeps the peak" 3
    (Engine.queue_depth_high_water e);
  (* events scheduled from inside events raise the mark only when the
     live depth actually exceeds it *)
  Engine.schedule e 10.0 (fun engine ->
      for i = 1 to 5 do
        Engine.schedule_after engine (float_of_int i) (fun _ -> ())
      done);
  Engine.run e;
  Alcotest.(check int) "cascade sets new peak" 5
    (Engine.queue_depth_high_water e)

(* ---------- Packet ---------- *)

let test_packet_defaults () =
  let p = Packet.make ~id:0 ~src:1 ~dst:2 ~created:0.0 () in
  Alcotest.(check int) "web port" 80 p.Packet.port;
  Alcotest.(check int) "visible port" 80 (Packet.visible_port p);
  Alcotest.(check bool) "app visible" true (Packet.visible_app p = Some Packet.Web)

let test_packet_tunneled_hides () =
  let p =
    Packet.make ~app:Packet.File_sharing ~tunneled:true ~id:0 ~src:1 ~dst:2
      ~created:0.0 ()
  in
  Alcotest.(check int) "masked port" 443 (Packet.visible_port p);
  Alcotest.(check bool) "app hidden" true (Packet.visible_app p = None)

let test_packet_encrypted_hides_app () =
  let p =
    Packet.make ~app:Packet.Voip ~encrypted:true ~id:0 ~src:1 ~dst:2
      ~created:0.0 ()
  in
  Alcotest.(check bool) "app hidden" true (Packet.visible_app p = None);
  Alcotest.(check int) "port still visible" 5060 (Packet.visible_port p)

let test_packet_bad_size () =
  Alcotest.check_raises "size" (Invalid_argument "Packet.make: non-positive size")
    (fun () ->
      ignore (Packet.make ~size_bytes:0 ~id:0 ~src:0 ~dst:1 ~created:0.0 ()))

(* ---------- Link ---------- *)

let test_link_delay () =
  let l = Link.make ~latency:0.01 ~bandwidth_bps:8000.0 () in
  (* 1000 bytes = 8000 bits = 1 second at 8 kb/s *)
  check_float "tx delay" 1.0 (Link.transmission_delay l 1000);
  match Link.try_enqueue l ~now:0.0 1000 with
  | `Sent arrival -> check_float "arrival" 1.01 arrival
  | `Dropped | `Faulted _ -> Alcotest.fail "dropped"

let test_link_queueing () =
  let l = Link.make ~latency:0.01 ~bandwidth_bps:8000.0 () in
  ignore (Link.try_enqueue l ~now:0.0 1000);
  (* second packet waits for the first to serialize *)
  match Link.try_enqueue l ~now:0.0 1000 with
  | `Sent arrival -> check_float "queued arrival" 2.01 arrival
  | `Dropped | `Faulted _ -> Alcotest.fail "dropped"

let test_link_drop_when_full () =
  let l = Link.make ~queue_capacity:2 ~latency:0.01 ~bandwidth_bps:8000.0 () in
  let offer () =
    match Link.try_enqueue l ~now:0.0 1000 with
    | `Sent _ -> "sent"
    | `Dropped -> "dropped"
    | `Faulted _ -> "faulted"
  in
  let first = offer () in
  let second = offer () in
  let third = offer () in
  Alcotest.(check (list string)) "two fill the queue, the third drops"
    [ "sent"; "sent"; "dropped" ] [ first; second; third ];
  Alcotest.(check int) "queue full" 2 (Link.queued l ~now:0.0)

let test_link_drains () =
  let l = Link.make ~queue_capacity:2 ~latency:0.01 ~bandwidth_bps:8000.0 () in
  ignore (Link.try_enqueue l ~now:0.0 1000);
  ignore (Link.try_enqueue l ~now:0.0 1000);
  Alcotest.(check int) "queued now" 2 (Link.queued l ~now:0.5);
  (* after both serialize (2s), the queue is empty again *)
  Alcotest.(check int) "drained" 0 (Link.queued l ~now:2.5);
  match Link.try_enqueue l ~now:2.5 1000 with
  | `Sent _ -> ()
  | `Dropped | `Faulted _ -> Alcotest.fail "should accept after drain"

let test_link_decreasing_now_raises () =
  (* regression: a decreasing [now] used to silently corrupt the
     busy-until accounting; the contract is now enforced *)
  let l = Link.make ~latency:0.01 ~bandwidth_bps:8000.0 () in
  ignore (Link.try_enqueue l ~now:1.0 1000);
  Alcotest.check_raises "decreasing now"
    (Invalid_argument
       "Link.try_enqueue: decreasing now (calls must be in non-decreasing \
        time order)") (fun () -> ignore (Link.try_enqueue l ~now:0.5 1000));
  (* equal time is still fine (FIFO ties are legitimate) *)
  match Link.try_enqueue l ~now:1.0 1000 with
  | `Sent _ -> ()
  | `Dropped | `Faulted _ -> Alcotest.fail "equal now must be accepted"

let test_link_down_up () =
  let l = Link.make ~latency:0.01 ~bandwidth_bps:8000.0 () in
  Alcotest.(check bool) "starts up" true (Link.is_up l);
  Link.set_up l false;
  (match Link.try_enqueue l ~now:0.0 1000 with
  | `Faulted Link.Down -> ()
  | `Sent _ | `Dropped | `Faulted _ -> Alcotest.fail "down link must fault");
  Alcotest.(check int) "fault drop counted" 1 (Link.fault_drops l);
  Alcotest.(check int) "held no queue slot" 0 (Link.queued l ~now:0.0);
  Link.set_up l true;
  match Link.try_enqueue l ~now:1.0 1000 with
  | `Sent _ -> ()
  | `Dropped | `Faulted _ -> Alcotest.fail "restored link must send"

let test_link_loss_and_corrupt () =
  let l = Link.make ~latency:0.01 ~bandwidth_bps:8000.0 () in
  Link.set_fault_rng l (Rng.create 7);
  Link.set_loss_prob l 1.0;
  (match Link.try_enqueue l ~now:0.0 1000 with
  | `Faulted Link.Loss -> ()
  | `Sent _ | `Dropped | `Faulted _ -> Alcotest.fail "p=1 loss must fault");
  Alcotest.(check int) "loss counted" 1 (Link.fault_drops l);
  (* loss does not consume wire capacity *)
  Alcotest.(check int) "nothing queued" 0 (Link.queued l ~now:0.0);
  Link.set_loss_prob l 0.0;
  Link.set_corrupt_prob l 1.0;
  (match Link.try_enqueue l ~now:0.0 1000 with
  | `Faulted Link.Corrupt -> ()
  | `Sent _ | `Dropped | `Faulted _ -> Alcotest.fail "p=1 corrupt must fault");
  Alcotest.(check int) "corruption counted" 1 (Link.corrupted_count l);
  (* corruption happens after transmission: capacity was consumed *)
  Alcotest.(check int) "wire occupied" 1 (Link.queued l ~now:0.0)

let test_link_latency_spike () =
  let l = Link.make ~latency:0.01 ~bandwidth_bps:8000.0 () in
  Link.set_extra_latency l 0.25;
  (match Link.try_enqueue l ~now:0.0 1000 with
  | `Sent arrival -> check_float "spiked arrival" 1.26 arrival
  | `Dropped | `Faulted _ -> Alcotest.fail "should send");
  Link.set_extra_latency l 0.0;
  match Link.try_enqueue l ~now:0.0 1000 with
  | `Sent arrival -> check_float "restored arrival" 2.01 arrival
  | `Dropped | `Faulted _ -> Alcotest.fail "should send"

let test_link_fault_validation () =
  let l = Link.make ~latency:0.01 ~bandwidth_bps:8000.0 () in
  Alcotest.check_raises "prob without rng"
    (Invalid_argument "Link.set_loss_prob: set_fault_rng first") (fun () ->
      Link.set_loss_prob l 0.5);
  Link.set_fault_rng l (Rng.create 1);
  Alcotest.check_raises "prob out of range"
    (Invalid_argument "Link.set_loss_prob: probability outside [0,1]")
    (fun () -> Link.set_loss_prob l 1.5);
  Alcotest.check_raises "negative spike"
    (Invalid_argument "Link.set_extra_latency: negative") (fun () ->
      Link.set_extra_latency l (-0.1))

(* ---------- the departure ring against the list oracle ---------- *)

type link_op =
  | Offer of float * int  (* advance the clock by dt, offer a packet *)
  | Peek of float  (* [queued] at dt past the clock, no offer *)
  | Toggle  (* flip the link down or up *)

let show_link_op = function
  | Offer (dt, size) -> Printf.sprintf "offer +%h %dB" dt size
  | Peek dt -> Printf.sprintf "peek +%h" dt
  | Toggle -> "toggle"

(* Capacities 1-8 so the ring wraps and grows; offers every 0-4 ms of
   packets taking up to 24 ms to serialize, so queues fill and drain;
   one seed drives both fault streams. *)
let gen_link_case =
  QCheck2.Gen.(
    let prob = frequency [ (1, return 0.0); (1, float_range 0.0 0.4) ] in
    let op =
      frequency
        [
          ( 8,
            let* dt = float_range 0.0 0.004
            and* size = frequency [ (1, return 0); (9, int_range 1 3000) ] in
            return (Offer (dt, size)) );
          (2, map (fun dt -> Peek dt) (float_range 0.0 0.01));
          (1, return Toggle);
        ]
    in
    let* cap = int_range 1 8
    and* seed = int_range 0 1_000_000
    and* loss = prob
    and* corrupt = prob
    and* gray = prob
    and* ops = list_size (int_range 1 80) op in
    return (cap, seed, (loss, corrupt, gray), ops))

let print_link_case (cap, seed, (loss, corrupt, gray), ops) =
  Printf.sprintf "cap %d seed %d loss %h corrupt %h gray %h: %s" cap seed loss
    corrupt gray
    (String.concat ", " (List.map show_link_op ops))

let link_ring_matches_list (cap, seed, (loss, corrupt, gray), ops) =
  let latency = 0.01 and bandwidth_bps = 1e6 in
  let l = Link.make ~queue_capacity:cap ~latency ~bandwidth_bps () in
  let o = Link_oracle.make ~queue_capacity:cap ~latency ~bandwidth_bps in
  Link.set_fault_rng l (Rng.create seed);
  o.Link_oracle.fault_rng <- Some (Rng.create seed);
  Link.set_loss_prob l loss;
  Link.set_corrupt_prob l corrupt;
  Link.set_gray_loss_prob l gray;
  o.Link_oracle.loss_prob <- loss;
  o.Link_oracle.corrupt_prob <- corrupt;
  o.Link_oracle.gray_loss_prob <- gray;
  let now = ref 0.0 in
  let same step what a b =
    if a <> b then
      QCheck2.Test.fail_reportf "step %d: %s differs (ring %s, list %s)" step
        what a b
  in
  let result = function
    | `Sent t -> Printf.sprintf "sent %h" t
    | `Dropped -> "dropped"
    | `Faulted Link.Down -> "down"
    | `Faulted Link.Loss -> "loss"
    | `Faulted Link.Corrupt -> "corrupt"
    | `Faulted Link.Gray -> "gray"
  in
  let i = string_of_int in
  List.iteri
    (fun step op ->
      (match op with
      | Offer (dt, size) ->
        now := !now +. dt;
        same step "try_enqueue"
          (result (Link.try_enqueue l ~now:!now size))
          (result (Link_oracle.try_enqueue o ~now:!now size))
      | Peek dt ->
        same step "queued"
          (i (Link.queued l ~now:(!now +. dt)))
          (i (Link_oracle.queued o ~now:(!now +. dt)))
      | Toggle ->
        Link.set_up l (not (Link.is_up l));
        o.Link_oracle.up <- not o.Link_oracle.up);
      same step "queue_length" (i (Link.queue_length l))
        (i (Link_oracle.queue_length o));
      same step "fault drops" (i (Link.fault_drops l))
        (i o.Link_oracle.fault_drops);
      same step "gray drops" (i (Link.gray_drops l)) (i o.Link_oracle.gray_drops);
      same step "corrupted" (i (Link.corrupted_count l))
        (i o.Link_oracle.corrupted))
    ops;
  true

let prop_link_ring_matches_list =
  QCheck2.Test.make ~name:"departure ring matches the list queue" ~count:500
    ~print:print_link_case gen_link_case link_ring_matches_list

(* Label sharing of every kind: [add_undirected] (one label both ways),
   a fresh label per directed edge, and a new edge reusing any earlier
   label, so one label can sit on three or more edges. *)
let gen_shared_graph =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let edge = triple (int_range 0 2) (int_bound (n - 1)) (int_bound (n - 1)) in
    let* edges = list_size (int_range 0 30) (pair edge nat) in
    return (n, edges))

let build_shared_graph (n, edges) =
  let g = Graph.create n in
  let made = ref [] in
  let fresh () =
    let l = Link.make ~latency:0.01 ~bandwidth_bps:1e6 () in
    made := l :: !made;
    l
  in
  List.iter
    (fun ((kind, u, v), pick) ->
      match (kind, !made) with
      | 0, _ -> Graph.add_undirected g u v (fresh ())
      | 1, _ | _, [] -> Graph.add_edge g u v (fresh ())
      | _, ls -> Graph.add_edge g u v (List.nth ls (pick mod List.length ls)))
    edges;
  g

let prop_fold_distinct_matches_memq =
  QCheck2.Test.make ~name:"fold_distinct visits what the memq fold visits"
    ~count:500 gen_shared_graph (fun case ->
      let g = build_shared_graph case in
      let ring =
        List.rev (Link.fold_distinct g ~init:[] ~f:(fun acc l -> l :: acc))
      in
      let memq = Link_oracle.distinct_links g in
      List.length ring = List.length memq && List.for_all2 ( == ) ring memq
      (* a second pass sees the same links: marks are per pass *)
      && Link.fold_distinct g ~init:0 ~f:(fun n _ -> n + 1) = List.length memq)

let test_fold_distinct_shared_labels () =
  (* one label both ways, one on three edges, one plain: three links,
     whose fault drops (1, 10 and 100) each count once *)
  let g = Graph.create 3 in
  let mk drops =
    let l = Link.make ~latency:0.01 ~bandwidth_bps:1e6 () in
    Link.set_up l false;
    for _ = 1 to drops do
      ignore (Link.try_enqueue l ~now:0.0 100)
    done;
    l
  in
  let both = mk 1 and three = mk 10 and plain = mk 100 in
  Graph.add_undirected g 0 1 both;
  Graph.add_edge g 0 2 three;
  Graph.add_edge g 2 1 three;
  Graph.add_edge g 1 2 three;
  Graph.add_edge g 2 0 plain;
  Alcotest.(check int) "each link's drops once" 111
    (Link.fold_distinct g ~init:0 ~f:(fun acc l -> acc + Link.fault_drops l))

(* ---------- Topology ---------- *)

let test_topology_line () =
  let g = Topology.line 5 in
  Alcotest.(check int) "nodes" 5 (Graph.node_count g);
  Alcotest.(check int) "edges" 8 (Graph.edge_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_topology_ring () =
  let g = Topology.ring 5 in
  Alcotest.(check int) "edges" 10 (Graph.edge_count g)

let test_topology_star () =
  let g = Topology.star 6 in
  Alcotest.(check int) "hub degree" 5 (List.length (Graph.succ g 0));
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_topology_grid () =
  let g = Topology.grid 3 4 in
  Alcotest.(check int) "nodes" 12 (Graph.node_count g);
  (* 3*3 horizontal + 2*4 vertical = 17 undirected = 34 directed *)
  Alcotest.(check int) "edges" 34 (Graph.edge_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_topology_barabasi_albert () =
  let rng = Rng.create 4 in
  let g = Topology.barabasi_albert rng 50 2 in
  Alcotest.(check int) "nodes" 50 (Graph.node_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

(* A naive copy of the generator as it was when it grew its endpoint
   multiset with [Array.append] per edge, kept as a pin: the buffered
   generator must lay down the same graph, edge for edge. *)
let reference_barabasi_albert rng n m =
  let g = Graph.create n in
  let endpoints = ref [] in
  for u = 0 to m do
    for v = u + 1 to m do
      Graph.add_undirected g u v Topology.default_edge;
      endpoints := u :: v :: !endpoints
    done
  done;
  let eps = ref (Array.of_list !endpoints) in
  for u = m + 1 to n - 1 do
    let chosen = Hashtbl.create m in
    while Hashtbl.length chosen < m do
      let v = Rng.choice rng !eps in
      if v <> u then Hashtbl.replace chosen v ()
    done;
    let added = Hashtbl.fold (fun v () acc -> v :: acc) chosen [] in
    List.iter
      (fun v ->
        Graph.add_undirected g u v Topology.default_edge;
        eps := Array.append !eps [| u; v |])
      added
  done;
  g

let test_topology_barabasi_albert_pinned () =
  let edges g =
    List.rev (Graph.fold_edges g ~init:[] ~f:(fun acc u v _ -> (u, v) :: acc))
  in
  List.iter
    (fun (seed, n, m) ->
      let name = Printf.sprintf "seed %d n %d m %d" seed n m in
      let g = Topology.barabasi_albert (Rng.create seed) n m in
      let r = reference_barabasi_albert (Rng.create seed) n m in
      Alcotest.(check (list (pair int int))) name (edges r) (edges g))
    [ (1, 10, 1); (7, 10, 2); (42, 10, 3); (1, 1000, 2); (9001, 1000, 3);
      (123, 1000, 1) ]

let test_topology_two_tier () =
  let rng = Rng.create 6 in
  let tt =
    Topology.two_tier rng ~transits:3 ~accesses:4 ~hosts_per_access:2
      ~multihoming:2
  in
  Alcotest.(check int) "transits" 3 (List.length tt.Topology.transits);
  Alcotest.(check int) "accesses" 4 (List.length tt.Topology.accesses);
  Alcotest.(check int) "hosts" 8 (List.length tt.Topology.hosts);
  Alcotest.(check bool) "connected" true (Graph.is_connected tt.Topology.graph);
  List.iter
    (fun h ->
      let a = tt.Topology.access_of_host h in
      Alcotest.(check bool) "access valid" true (List.mem a tt.Topology.accesses))
    tt.Topology.hosts;
  List.iter
    (fun a ->
      Alcotest.(check int) "multihomed" 2
        (List.length (tt.Topology.transit_of_access a)))
    tt.Topology.accesses

let test_topology_two_tier_relationships () =
  let rng = Rng.create 7 in
  let tt =
    Topology.two_tier rng ~transits:2 ~accesses:2 ~hosts_per_access:1
      ~multihoming:1
  in
  (* transit-transit edges are peer *)
  (match Graph.find_edge tt.Topology.graph 0 1 with
  | Some (_, Topology.Peer_with) -> ()
  | Some _ -> Alcotest.fail "expected peer edge"
  | None -> Alcotest.fail "missing backbone edge");
  (* access -> transit is customer_of *)
  let a = List.hd tt.Topology.accesses in
  let t = List.hd (tt.Topology.transit_of_access a) in
  match Graph.find_edge tt.Topology.graph a t with
  | Some (_, Topology.Customer_of) -> ()
  | Some _ -> Alcotest.fail "expected customer edge"
  | None -> Alcotest.fail "missing access-transit edge"

(* ---------- Middlebox ---------- *)

let mk_packet ?(app = Packet.Web) ?(encrypted = false) ?(tunneled = false)
    ?(qos = Packet.Best_effort) ?source_route id =
  Packet.make ~app ~encrypted ~tunneled ~qos ?source_route ~id ~src:0 ~dst:9
    ~created:0.0 ()

let test_middlebox_port_filter () =
  let mb = Middlebox.port_filter ~blocked:[ 6881 ] () in
  let p = mk_packet ~app:Packet.File_sharing 0 in
  Alcotest.(check bool) "drops" true (Middlebox.decide mb p = Middlebox.Drop);
  let masked = mk_packet ~app:Packet.File_sharing ~tunneled:true 1 in
  Alcotest.(check bool) "tunnel defeats" true
    (Middlebox.decide mb masked = Middlebox.Forward)

let test_middlebox_app_filter () =
  let mb = Middlebox.app_filter ~blocked:[ Packet.File_sharing ] in
  let plain = mk_packet ~app:Packet.File_sharing 0 in
  Alcotest.(check bool) "drops plain" true (Middlebox.decide mb plain = Middlebox.Drop);
  (* DPI sees through a plain tunnel?  No: visible_app is None when
     tunneled, so the app filter cannot match. *)
  let tunneled = mk_packet ~app:Packet.File_sharing ~tunneled:true 1 in
  Alcotest.(check bool) "tunnel hides app" true
    (Middlebox.decide mb tunneled = Middlebox.Forward);
  let enc = mk_packet ~app:Packet.File_sharing ~encrypted:true 2 in
  Alcotest.(check bool) "encryption hides app" true
    (Middlebox.decide mb enc = Middlebox.Forward)

let test_middlebox_trust_firewall () =
  let mb = Middlebox.trust_firewall ~admits:(fun ~src ~dst:_ -> src <> 0) in
  Alcotest.(check bool) "blocks untrusted" true
    (Middlebox.decide mb (mk_packet 0) = Middlebox.Drop);
  let p = Packet.make ~id:1 ~src:5 ~dst:9 ~created:0.0 () in
  Alcotest.(check bool) "admits trusted" true
    (Middlebox.decide mb p = Middlebox.Forward)

let test_middlebox_qos_stripper () =
  let mb = Middlebox.qos_stripper ~honor:(fun _ -> false) in
  let premium = mk_packet ~qos:Packet.Premium 0 in
  Alcotest.(check bool) "degrades" true
    (Middlebox.decide mb premium = Middlebox.Degrade);
  let be = mk_packet 1 in
  Alcotest.(check bool) "best effort untouched" true
    (Middlebox.decide mb be = Middlebox.Forward)

(* ---------- Net ---------- *)

(* static forwarding along a line 0-1-2-3 *)
let line_links n = Topology.to_links (Topology.line n)

let line_forwarding ~node ~target _p =
  if target > node then Some (node + 1)
  else if target < node then Some (node - 1)
  else None

(* One packet 0 -> 3 on the line, with the flight recorder on: the
   net, its completions and the recorded events. *)
let run_line_packet ?(middlebox : (int * Middlebox.t) option) () =
  let net = Net.create (line_links 4) line_forwarding in
  (match middlebox with
  | Some (node, mb) -> Net.add_middlebox net node mb
  | None -> ());
  let log = Completed.record net in
  let engine = Engine.create () in
  let (), events =
    Completed.with_flight (fun () ->
        Net.inject net engine (Packet.make ~id:0 ~src:0 ~dst:3 ~created:0.0 ());
        Engine.run engine)
  in
  (net, log (), events)

let test_net_delivery () =
  let net, completed, events = run_line_packet () in
  Alcotest.(check int) "delivered" 1 (Net.delivered_count net);
  Alcotest.(check (list int)) "route" [ 0; 1; 2; 3 ] (Completed.route events 0);
  match completed with
  | [ (_, Net.Delivered d) ] ->
    Alcotest.(check bool) "latency positive" true (d.latency > 0.0)
  | _ -> Alcotest.fail "expected one delivery"

let test_net_filter_drop () =
  let mb = Middlebox.port_filter ~blocked:[ 80 ] () in
  let net, completed, _ = run_line_packet ~middlebox:(1, mb) () in
  Alcotest.(check int) "lost" 1 (Net.lost_count net);
  match completed with
  | [ (_, Net.Lost (Net.Filtered (name, node))) ] ->
    Alcotest.(check string) "who" "port-filter" name;
    Alcotest.(check int) "where" 1 node
  | _ -> Alcotest.fail "expected filtered loss"

let test_net_no_route () =
  let links = line_links 4 in
  let net = Net.create links (fun ~node:_ ~target:_ _ -> None) in
  let engine = Engine.create () in
  let log = Completed.record net in
  let p = Packet.make ~id:0 ~src:0 ~dst:3 ~created:0.0 () in
  Net.inject net engine p;
  Engine.run engine;
  match log () with
  | [ (_, Net.Lost Net.No_route) ] -> ()
  | _ -> Alcotest.fail "expected no-route loss"

let test_net_source_route_waypoint () =
  (* waypoint forces the packet out to node 2 then back to 1?  On a line
     from 0 to 3 a waypoint at 2 is on the path; use waypoint 3 with dst 1
     to force an overshoot instead. *)
  let net = Net.create (line_links 4) line_forwarding in
  let engine = Engine.create () in
  let p =
    Packet.make ~source_route:[ 3 ] ~id:0 ~src:0 ~dst:1 ~created:0.0 ()
  in
  let (), events =
    Completed.with_flight (fun () ->
        Net.inject net engine p;
        Engine.run engine)
  in
  Alcotest.(check int) "delivered" 1 (Net.delivered_count net);
  Alcotest.(check (list int)) "went via 3" [ 0; 1; 2; 3; 2; 1 ]
    (Completed.route events 0)

let test_net_ttl () =
  (* forwarding loop between 0 and 1 *)
  let g = Graph.create 2 in
  Graph.add_undirected g 0 1
    (Link.make ~latency:0.001 ~bandwidth_bps:1e9 ());
  let net = Net.create g (fun ~node ~target:_ _ -> Some (1 - node)) in
  let engine = Engine.create () in
  (* a source route bouncing between 0 and 1 for longer than the
     64-hop bound: TTL must kill the packet before it reaches dst 1 *)
  let p = Packet.make ~id:0 ~src:0 ~dst:1 ~created:0.0 () in
  let p =
    { p with Packet.source_route = List.init 65 (fun i -> i mod 2) }
  in
  let log = Completed.record net in
  Net.inject net engine p;
  Engine.run engine;
  match log () with
  | [ (_, Net.Lost Net.Ttl_exceeded) ] -> ()
  | [ (_, Net.Delivered _) ] -> Alcotest.fail "should not deliver"
  | _ -> Alcotest.fail "expected ttl loss"

let test_net_queue_loss () =
  (* one slow link, many simultaneous packets: some must drop *)
  let g = Graph.create 2 in
  Graph.add_edge g 0 1
    (Link.make ~queue_capacity:4 ~latency:0.001 ~bandwidth_bps:8000.0 ());
  let net = Net.create g (fun ~node ~target _ -> if node = 0 && target = 1 then Some 1 else None) in
  let engine = Engine.create () in
  for i = 0 to 9 do
    Net.inject net engine (Packet.make ~id:i ~src:0 ~dst:1 ~created:0.0 ())
  done;
  Engine.run engine;
  Alcotest.(check int) "completed" 10
    (Net.delivered_count net + Net.lost_count net);
  Alcotest.(check bool) "some dropped" true (Net.lost_count net > 0);
  Alcotest.(check bool) "some delivered" true (Net.delivered_count net >= 4);
  match Net.losses_by_label (Net.losses net) with
  | [ ("queue-full", n) ] -> Alcotest.(check bool) "reason count" true (n > 0)
  | _ -> Alcotest.fail "expected queue-full losses"

(* The flight recorder's "drop" record round-trips: for one real drop
   of every reason, [Net.drop_of_flight] of the event the net wrote is
   exactly the reason in its outcome ledger. *)
let test_drop_of_flight_roundtrip () =
  let module Flight = Tussle_obs.Flight in
  let recorded ?(forwarding = line_forwarding) ?(packets = 1) arm =
    let links = line_links 4 in
    let net = Net.create links forwarding in
    arm net (fun u v -> Option.get (Graph.find_edge links u v));
    let log = Completed.record net in
    let engine = Engine.create () in
    let (), events =
      Completed.with_flight (fun () ->
          for id = 0 to packets - 1 do
            Net.inject net engine
              (Packet.make ~id ~src:0 ~dst:3 ~created:0.0 ())
          done;
          Engine.run engine)
    in
    let lost =
      List.filter_map
        (function _, Net.Lost r -> Some r | _, Net.Delivered _ -> None)
        (log ())
    in
    (events, lost)
  in
  let faulty set = fun _ link ->
    let l = link 1 2 in
    Link.set_fault_rng l (Rng.create 1);
    set l
  in
  let cases =
    [
      ( Net.No_route,
        recorded
          ~forwarding:(fun ~node ~target:_ _ -> if node = 0 then Some 1 else None)
          (fun _ _ -> ()) );
      (Net.Queue_full (0, 1), recorded ~packets:100 (fun _ _ -> ()));
      ( Net.Filtered ("odd:name:", 1),
        recorded (fun net _ ->
            Net.add_middlebox net 1
              (Middlebox.make ~name:"odd:name:" (fun _ -> Middlebox.Drop))) );
      ( Net.Ttl_exceeded,
        recorded ~forwarding:(fun ~node ~target:_ _ -> Some (1 - node))
          (fun _ _ -> ()) );
      (Net.Link_down (1, 2), recorded (fun _ link -> Link.set_up (link 1 2) false));
      (Net.Fault_loss (1, 2), recorded (faulty (fun l -> Link.set_loss_prob l 1.0)));
      (Net.Corrupted (1, 2), recorded (faulty (fun l -> Link.set_corrupt_prob l 1.0)));
      ( Net.Gray_loss (1, 2),
        recorded (faulty (fun l -> Link.set_gray_loss_prob l 1.0)) );
      (Net.Blackholed 1, recorded (fun net _ -> Net.set_blackhole net 1 true));
    ]
  in
  List.iter
    (fun (want, (events, lost)) ->
      let label = Net.drop_reason_label want in
      let drops = List.filter (fun e -> e.Flight.kind = "drop") events in
      Alcotest.(check bool) (label ^ ": dropped as expected") true
        (lost <> [] && List.for_all (( = ) want) lost);
      Alcotest.(check bool) (label ^ ": every record decodes") true
        (List.map Net.drop_of_flight drops = List.map Option.some lost))
    cases;
  (* anything but a drop record, or an unknown label, is not a drop *)
  let ev kind detail =
    { Flight.seq = 0; sim_t = 0.0; flow = 0; kind; node = 1; peer = 2;
      detail; value = 0.0 }
  in
  let link_down = Net.drop_reason_label (Net.Link_down (1, 2)) in
  List.iter
    (fun (what, e) ->
      Alcotest.(check bool) what true (Net.drop_of_flight e = None))
    [
      ("retransmission timer", ev "xfer-timer" link_down);
      ("delivery", ev "deliver" "");
      ("unknown label", ev "drop" "vanished");
      ("filtered without a name separator", ev "drop" "filtered");
    ]

let test_net_degraded_flag () =
  let mb = Middlebox.qos_stripper ~honor:(fun _ -> false) in
  let net = Net.create (line_links 4) line_forwarding in
  Net.add_middlebox net 1 mb;
  let engine = Engine.create () in
  let p =
    Packet.make ~qos:Packet.Premium ~id:0 ~src:0 ~dst:3 ~created:0.0 ()
  in
  let log = Completed.record net in
  Net.inject net engine p;
  Engine.run engine;
  match log () with
  | [ (_, Net.Delivered d) ] -> Alcotest.(check bool) "degraded" true d.degraded
  | _ -> Alcotest.fail "expected delivery"

let test_net_duplicate_id_rejected () =
  let net = Net.create (line_links 4) line_forwarding in
  let engine = Engine.create () in
  let p = Packet.make ~id:7 ~src:0 ~dst:3 ~created:0.0 () in
  Net.inject net engine p;
  Alcotest.check_raises "dup" (Invalid_argument "Net.inject: duplicate packet id in flight")
    (fun () ->
      Net.inject net engine (Packet.make ~id:7 ~src:0 ~dst:3 ~created:0.0 ()))

(* A node outside the link graph is rejected where it is attached, not
   stored and never consulted. *)
let test_net_node_out_of_range () =
  let net = Net.create (line_links 4) line_forwarding in
  let mb = Middlebox.port_filter ~blocked:[ 80 ] () in
  List.iter
    (fun node ->
      Alcotest.check_raises "add_middlebox"
        (Invalid_argument "Net.add_middlebox: node out of range") (fun () ->
          Net.add_middlebox net node mb);
      Alcotest.check_raises "set_blackhole"
        (Invalid_argument "Net.set_blackhole: node out of range") (fun () ->
          Net.set_blackhole net node true);
      Alcotest.check_raises "middleboxes_at"
        (Invalid_argument "Net.middleboxes_at: node out of range") (fun () ->
          ignore (Net.middleboxes_at net node)))
    [ -1; 4 ];
  Net.add_middlebox net 3 mb;
  Alcotest.(check int) "the last node takes one" 1
    (List.length (Net.middleboxes_at net 3))

(* ---------- Traffic ---------- *)

let test_traffic_constant_spacing () =
  let gen = Traffic.create () in
  let net = Net.create (line_links 2) line_forwarding in
  let engine = Engine.create () in
  let log = Completed.record net in
  Traffic.constant_flow gen engine net ~start:0.0 ~interval:1.0 ~count:3
    ~make:(fun g ~created ->
      Packet.make ~id:(Traffic.fresh_id g) ~src:0 ~dst:1 ~created ());
  Engine.run engine;
  let created = List.map (fun (p, _) -> p.Packet.created) (log ()) in
  Alcotest.(check (list (float 1e-9))) "spaced" [ 0.0; 1.0; 2.0 ]
    (List.sort compare created)

let test_traffic_fresh_ids () =
  let gen = Traffic.create () in
  Alcotest.(check int) "id0" 0 (Traffic.fresh_id gen);
  Alcotest.(check int) "id1" 1 (Traffic.fresh_id gen)

(* ---------- Congestion ---------- *)

module Congestion = Tussle_netsim.Congestion

let test_congestion_jain () =
  check_float "equal is fair" 1.0 (Congestion.jain_index [| 2.0; 2.0; 2.0 |]);
  Alcotest.(check bool) "skew unfair" true
    (Congestion.jain_index [| 10.0; 0.1; 0.1 |] < 0.5);
  check_float "all zero" 0.0 (Congestion.jain_index [| 0.0; 0.0 |])

let test_congestion_max_min () =
  let a = Congestion.max_min_allocation [| 5.0; 50.0; 50.0 |] 60.0 in
  check_float "small demand met" 5.0 a.(0);
  check_float "rest split" 27.5 a.(1);
  check_float "rest split 2" 27.5 a.(2);
  (* under-loaded: everyone gets their demand *)
  let b = Congestion.max_min_allocation [| 1.0; 2.0 |] 60.0 in
  check_float "demand met 1" 1.0 b.(0);
  check_float "demand met 2" 2.0 b.(1)

let test_congestion_all_honest () =
  let cfg = Congestion.default_config ~kinds:(Array.make 8 Congestion.Compliant) in
  let r = Congestion.run cfg Congestion.Fifo in
  Alcotest.(check bool) "fair" true (r.Congestion.jain > 0.95);
  Alcotest.(check bool) "utilized" true (r.Congestion.utilization > 0.6);
  Alcotest.(check bool) "not overdriven" true (r.Congestion.utilization <= 1.0 +. 1e-9)

let test_congestion_cheater_starves_fifo () =
  let kinds = Array.make 8 Congestion.Compliant in
  kinds.(0) <- Congestion.Aggressive;
  let cfg = Congestion.default_config ~kinds in
  let r = Congestion.run cfg Congestion.Fifo in
  Alcotest.(check bool) "cheater dominates" true
    (r.Congestion.mean_aggressive > 10.0 *. r.Congestion.mean_compliant)

let test_congestion_fq_protects () =
  let kinds = Array.make 8 Congestion.Compliant in
  kinds.(0) <- Congestion.Aggressive;
  let cfg = Congestion.default_config ~kinds in
  let fifo = Congestion.run cfg Congestion.Fifo in
  let fq = Congestion.run cfg Congestion.Fair_queueing in
  Alcotest.(check bool) "honest do better under fq" true
    (fq.Congestion.mean_compliant > 5.0 *. fifo.Congestion.mean_compliant);
  Alcotest.(check bool) "cheater capped vs fifo" true
    (fq.Congestion.mean_aggressive < fifo.Congestion.mean_aggressive)

let test_congestion_validation () =
  Alcotest.check_raises "no flows" (Invalid_argument "Congestion.run: no flows")
    (fun () ->
      ignore
        (Congestion.run (Congestion.default_config ~kinds:[||]) Congestion.Fifo))

(* ---------- Cache ---------- *)

module Cache = Tussle_netsim.Cache

let test_cache_hit_miss () =
  let c = Cache.create ~app:Packet.Web in
  Alcotest.(check bool) "cold miss" false (Cache.lookup c ~key:1);
  Cache.insert c ~key:1;
  Alcotest.(check bool) "warm hit" true (Cache.lookup c ~key:1);
  Alcotest.(check bool) "other key misses" false (Cache.lookup c ~key:2);
  Alcotest.(check int) "a miss inserts nothing" 1 (Cache.size c)

let test_cache_lru_eviction () =
  (* a cache holds 25 objects *)
  let c = Cache.create ~app:Packet.Web in
  for key = 1 to 25 do
    Cache.insert c ~key
  done;
  ignore (Cache.lookup c ~key:1);
  (* 2 is now least recently used *)
  Cache.insert c ~key:26;
  Alcotest.(check int) "size bounded" 25 (Cache.size c);
  Alcotest.(check bool) "1 kept" true (Cache.lookup c ~key:1);
  Alcotest.(check bool) "2 evicted" false (Cache.lookup c ~key:2)

let test_cache_serves_semantics () =
  let c = Cache.create ~app:Packet.Web in
  let web id = Packet.make ~app:Packet.Web ~port:8001 ~id ~src:0 ~dst:9 ~created:0.0 () in
  Alcotest.(check bool) "first fetch misses" false (Cache.serves c (web 0));
  Alcotest.(check bool) "second fetch hits" true (Cache.serves c (web 1));
  (* wrong application: never served *)
  let game =
    Packet.make ~app:Packet.Game ~port:8001 ~id:2 ~src:0 ~dst:9 ~created:0.0 ()
  in
  Alcotest.(check bool) "new app ignored" false (Cache.serves c game);
  Alcotest.(check bool) "still ignored" false (Cache.serves c game);
  (* encrypted: cannot serve *)
  let enc =
    Packet.make ~app:Packet.Web ~encrypted:true ~port:8001 ~id:3 ~src:0 ~dst:9
      ~created:0.0 ()
  in
  Alcotest.(check bool) "encrypted unserved" false (Cache.serves c enc)

(* ---------- Diagnosis ---------- *)

module Diagnosis = Tussle_netsim.Diagnosis

let diag_path = [ 0; 1; 2; 3; 4 ]

let test_diagnosis_clean () =
  let probe _ = Diagnosis.Reached in
  let r = Diagnosis.localize ~probe ~path:diag_path in
  Alcotest.(check bool) "clean" true (r.Diagnosis.verdict = Diagnosis.Clean);
  Alcotest.(check int) "one probe" 1 r.Diagnosis.probes_used

let test_diagnosis_confession () =
  let probe target =
    if target >= 2 then Diagnosis.Reported_block ("filter", 2)
    else Diagnosis.Reached
  in
  let r = Diagnosis.localize ~probe ~path:diag_path in
  Alcotest.(check bool) "exact" true
    (r.Diagnosis.verdict = Diagnosis.Blocked_at ("filter", 2));
  Alcotest.(check int) "one probe" 1 r.Diagnosis.probes_used

let test_diagnosis_covert_bracket () =
  let probe target = if target >= 3 then Diagnosis.Lost else Diagnosis.Reached in
  let r = Diagnosis.localize ~probe ~path:diag_path in
  Alcotest.(check bool) "bracketed" true
    (r.Diagnosis.verdict = Diagnosis.Blocked_between (2, 3));
  Alcotest.(check bool) "cost more probes" true (r.Diagnosis.probes_used > 1)

let test_diagnosis_dead_first_hop () =
  let probe target = if target = 0 then Diagnosis.Reached else Diagnosis.Lost in
  let r = Diagnosis.localize ~probe ~path:diag_path in
  Alcotest.(check bool) "dead at start" true
    (r.Diagnosis.verdict = Diagnosis.Unreachable_at_start)

let test_diagnosis_last_hop () =
  (* only the destination is silent: failure on the last hop *)
  let probe target = if target = 4 then Diagnosis.Lost else Diagnosis.Reached in
  let r = Diagnosis.localize ~probe ~path:diag_path in
  Alcotest.(check bool) "last hop" true
    (r.Diagnosis.verdict = Diagnosis.Blocked_between (3, 4))

let test_diagnosis_short_path () =
  Alcotest.check_raises "short" (Invalid_argument "Diagnosis.localize: path too short")
    (fun () ->
      ignore (Diagnosis.localize ~probe:(fun _ -> Diagnosis.Reached) ~path:[ 1 ]))

let test_diagnosis_two_node_path () =
  (* the minimal path: source and destination only.  A silent failure
     can only sit on the single hop — and must not read as
     Unreachable_at_start, because there are no intermediate nodes to
     have heard from *)
  let probe _ = Diagnosis.Lost in
  let r = Diagnosis.localize ~probe ~path:[ 7; 9 ] in
  Alcotest.(check bool) "single hop bracketed" true
    (r.Diagnosis.verdict = Diagnosis.Blocked_between (7, 9));
  Alcotest.(check int) "one probe suffices" 1 r.Diagnosis.probes_used

let test_diagnosis_first_hop_vs_destination () =
  (* failure at the first hop: nothing past the source answers *)
  let first_hop target = if target = 0 then Diagnosis.Reached else Diagnosis.Lost in
  let r = Diagnosis.localize ~probe:first_hop ~path:diag_path in
  Alcotest.(check bool) "first hop" true
    (r.Diagnosis.verdict = Diagnosis.Unreachable_at_start);
  (* failure at the destination: every intermediate node answers *)
  let dest_only target = if target = 4 then Diagnosis.Lost else Diagnosis.Reached in
  let r = Diagnosis.localize ~probe:dest_only ~path:diag_path in
  Alcotest.(check bool) "destination hop" true
    (r.Diagnosis.verdict = Diagnosis.Blocked_between (3, 4));
  (* the destination sweep probed every intermediate node *)
  Alcotest.(check int) "probe cost" 4 r.Diagnosis.probes_used

let test_diagnosis_revealing_at_bracket_boundary () =
  (* the destination probe dies silently (a covert fault further down),
     but the forward scan hits a revealing device exactly where a
     bracket would have been placed: the confession must win *)
  let probe target =
    if target = 4 then Diagnosis.Lost
    else if target >= 2 then Diagnosis.Reported_block ("edge-filter", 2)
    else Diagnosis.Reached
  in
  let r = Diagnosis.localize ~probe ~path:diag_path in
  Alcotest.(check bool) "confession wins over bracket" true
    (r.Diagnosis.verdict = Diagnosis.Blocked_at ("edge-filter", 2));
  (* dest + node 1 + node 2 *)
  Alcotest.(check int) "three probes" 3 r.Diagnosis.probes_used

let test_net_probe_reused_id () =
  (* every probe reuses id 0, which [Net.inject] allows once the last
     one completed: each probe must classify the packet it injected,
     not an earlier completion with the same id *)
  let net = Net.create (line_links 4) line_forwarding in
  Net.add_middlebox net 2
    (Middlebox.port_filter ~reveals_presence:false ~blocked:[ 80 ] ());
  let engine = Engine.create () in
  let make ~target =
    Packet.make ~id:0 ~src:0 ~dst:target ~created:(Engine.now engine) ()
  in
  let r =
    Diagnosis.localize ~probe:(Diagnosis.net_probe net engine ~make)
      ~path:[ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "bracketed at the filter" true
    (r.Diagnosis.verdict = Diagnosis.Blocked_between (1, 2));
  (* dest + node 1 + node 2 *)
  Alcotest.(check int) "three probes" 3 r.Diagnosis.probes_used

(* ---------- NAT ---------- *)

module Nat = Tussle_netsim.Nat

let nat_fixture () = Nat.create ~public:1 ~privates:[ 10; 11; 12 ]

let test_nat_outbound_rewrite () =
  let nat = nat_fixture () in
  let p = Packet.make ~id:0 ~src:10 ~dst:50 ~created:0.0 () in
  let q = Nat.translate_out nat p in
  Alcotest.(check int) "public src" 1 q.Packet.src;
  Alcotest.(check bool) "port remapped" true (q.Packet.port <> p.Packet.port);
  Alcotest.(check int) "dst untouched" 50 q.Packet.dst;
  (* same flow reuses the binding *)
  let q2 = Nat.translate_out nat (Packet.make ~id:1 ~src:10 ~dst:51 ~created:0.0 ()) in
  Alcotest.(check int) "stable binding" q.Packet.port q2.Packet.port

let test_nat_reply_comes_back () =
  let nat = nat_fixture () in
  let out = Nat.translate_out nat (Packet.make ~id:0 ~src:11 ~dst:50 ~created:0.0 ()) in
  let reply =
    Packet.make ~port:out.Packet.port ~id:1 ~src:50 ~dst:1 ~created:0.0 ()
  in
  (match Nat.translate_in nat reply with
  | Some r ->
    Alcotest.(check int) "back to the host" 11 r.Packet.dst;
    Alcotest.(check int) "original port" 80 r.Packet.port
  | None -> Alcotest.fail "reply should map");
  Alcotest.(check int) "no drops" 0 (Nat.inbound_drops nat)

let test_nat_unsolicited_dies () =
  let nat = nat_fixture () in
  let call = Packet.make ~port:5555 ~id:0 ~src:60 ~dst:1 ~created:0.0 () in
  Alcotest.(check bool) "dropped" true (Nat.translate_in nat call = None);
  Alcotest.(check int) "counted" 1 (Nat.inbound_drops nat)

let test_nat_port_forward () =
  let nat = nat_fixture () in
  Nat.add_port_forward nat ~public_port:8080 ~host:12 ~port:80;
  let call = Packet.make ~port:8080 ~id:0 ~src:60 ~dst:1 ~created:0.0 () in
  match Nat.translate_in nat call with
  | Some r ->
    Alcotest.(check int) "forwarded" 12 r.Packet.dst;
    Alcotest.(check int) "service port" 80 r.Packet.port
  | None -> Alcotest.fail "forward should map"

let test_nat_validation () =
  let nat = nat_fixture () in
  Alcotest.check_raises "outsider"
    (Invalid_argument "Nat.translate_out: source not behind this NAT")
    (fun () ->
      ignore (Nat.translate_out nat (Packet.make ~id:0 ~src:99 ~dst:1 ~created:0.0 ())));
  Alcotest.check_raises "household"
    (Invalid_argument "Nat.create: empty household") (fun () ->
      ignore (Nat.create ~public:1 ~privates:[]))

(* ---------- Transport ---------- *)

module Transport = Tussle_netsim.Transport

let direct_forwarding ~node ~target _ = if target <> node then Some target else None

let single_link_net () =
  let g = Graph.create 2 in
  Graph.add_undirected g 0 1
    (Link.make ~queue_capacity:16 ~latency:0.005 ~bandwidth_bps:2e6 ());
  Net.create g direct_forwarding

(* two senders (0, 1) into a shared bottleneck 2 -> 3 *)
let shared_bottleneck_net () =
  let g = Graph.create 4 in
  let fast () = Link.make ~queue_capacity:64 ~latency:0.001 ~bandwidth_bps:1e8 () in
  Graph.add_undirected g 0 2 (fast ());
  Graph.add_undirected g 1 2 (fast ());
  Graph.add_undirected g 2 3
    (Link.make ~queue_capacity:8 ~latency:0.005 ~bandwidth_bps:2e6 ());
  let forwarding ~node ~target _ =
    if node = target then None
    else if node = 3 || target = node then None
    else if node = 2 then Some target
    else if target = node then None
    else if target = 3 || target = 2 then Some 2
    else Some target
  in
  Net.create g forwarding

let test_transport_completes () =
  let net = single_link_net () in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let c = Transport.start engine net gen ~src:0 ~dst:1 ~total_packets:200 in
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "completed" true
    (Transport.status c = Transport.Completed);
  Alcotest.(check int) "all acked" 200 (Transport.acked c)

let test_transport_losses_recovered () =
  (* tiny queue forces drops; every drop must be retransmitted and the
     transfer must still complete *)
  let g = Graph.create 2 in
  Graph.add_undirected g 0 1
    (Link.make ~queue_capacity:4 ~latency:0.005 ~bandwidth_bps:1e6 ());
  let net = Net.create g direct_forwarding in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let c = Transport.start engine net gen ~src:0 ~dst:1 ~total_packets:100 in
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "losses occurred" true (Transport.losses c > 0);
  Alcotest.(check bool) "retransmitted" true (Transport.retransmissions c > 0);
  Alcotest.(check bool) "still completed" true
    (Transport.status c = Transport.Completed)

let test_transport_two_compliant_share () =
  let net = shared_bottleneck_net () in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let a = Transport.start engine net gen ~src:0 ~dst:3 ~total_packets:100_000 in
  let b = Transport.start engine net gen ~src:1 ~dst:3 ~total_packets:100_000 in
  Engine.run ~until:30.0 engine;
  let ga = Transport.goodput a ~now:30.0 and gb = Transport.goodput b ~now:30.0 in
  Alcotest.(check bool) "both progress" true (ga > 0.0 && gb > 0.0);
  let ratio = Float.max ga gb /. Float.min ga gb in
  Alcotest.(check bool) "roughly fair" true (ratio < 3.0)

let test_transport_aggressive_starves () =
  let net = shared_bottleneck_net () in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  let honest = Transport.start engine net gen ~src:0 ~dst:3 ~total_packets:100_000 in
  let cheat =
    Transport.start ~behaviour:Transport.Aggressive engine net gen ~src:1
      ~dst:3 ~total_packets:100_000
  in
  Engine.run ~until:30.0 engine;
  let gh = Transport.goodput honest ~now:30.0
  and gc = Transport.goodput cheat ~now:30.0 in
  Alcotest.(check bool) "cheater dominates" true (gc > 2.0 *. gh)

let test_transport_validation () =
  let net = single_link_net () in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  Alcotest.check_raises "empty transfer"
    (Invalid_argument "Transport.start: nothing to send") (fun () ->
      ignore (Transport.start engine net gen ~src:0 ~dst:1 ~total_packets:0))

(* ---------- Transport resilience (faulted links) ---------- *)

(* single 0-1 link whose object we keep, so tests can flip its state *)
let faultable_net () =
  let g = Graph.create 2 in
  let l = Link.make ~queue_capacity:16 ~latency:0.005 ~bandwidth_bps:2e6 () in
  Graph.add_undirected g 0 1 l;
  (Net.create g direct_forwarding, l)

let test_transport_survives_down_window () =
  (* the link dies mid-flight and comes back: the transfer must finish
     after the restore, paced by backoff retransmissions *)
  let net, link = faultable_net () in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  Engine.schedule engine 0.1 (fun _ -> Link.set_up link false);
  Engine.schedule engine 0.8 (fun _ -> Link.set_up link true);
  let c =
    Transport.start
      ~retry:(Transport.retry ~jitter:(Rng.create 21) ~budget:20)
      engine net gen ~src:0 ~dst:1 ~total_packets:100
  in
  Engine.run ~until:120.0 engine;
  Alcotest.(check int) "engine drained" 0 (Engine.pending engine);
  Alcotest.(check bool) "completed after restore" true
    (Transport.status c = Transport.Completed);
  Alcotest.(check int) "all acked" 100 (Transport.acked c);
  Alcotest.(check bool) "retransmissions counted" true
    (Transport.retransmissions c > 0);
  Alcotest.(check bool) "timeouts counted" true (Transport.losses c > 0)

let test_transport_abandons_dead_path () =
  (* the link never comes back: the connection must give up once a
     packet spends its retry budget and let the engine drain — never
     hang it *)
  let net, link = faultable_net () in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  Link.set_up link false;
  let c =
    Transport.start
      ~retry:(Transport.retry ~jitter:(Rng.create 22) ~budget:3)
      engine net gen ~src:0 ~dst:1 ~total_packets:50
  in
  Engine.run ~until:120.0 engine;
  Alcotest.(check int) "engine drained" 0 (Engine.pending engine);
  Alcotest.(check bool) "abandoned" true
    (Transport.status c = Transport.Abandoned);
  Alcotest.(check bool) "gave up at a recorded time" true
    (Transport.abandon_time c <> None);
  Alcotest.(check int) "nothing acked" 0 (Transport.acked c);
  (* goodput freezes at the abandon time instead of decaying with now *)
  check_float "goodput at abandonment"
    (Transport.goodput c ~now:(Engine.now engine))
    (Transport.goodput c ~now:1e9)

let test_transport_stalled_probe () =
  let net, link = faultable_net () in
  let engine = Engine.create () in
  let gen = Traffic.create () in
  Link.set_up link false;
  let c =
    Transport.start
      ~retry:(Transport.retry ~jitter:(Rng.create 23) ~budget:50)
      engine net gen ~src:0 ~dst:1 ~total_packets:10
  in
  Engine.run ~until:5.0 engine;
  (* no ack ever arrived: the connection is alive but stalled *)
  Alcotest.(check bool) "still active" true (Transport.status c = Transport.Active);
  Alcotest.(check int) "nothing acked" 0 (Transport.acked c);
  Link.set_up link true;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "recovers" true
    (Transport.status c = Transport.Completed);
  Alcotest.(check int) "all acked" 10 (Transport.acked c)

let test_transport_resilience_validation () =
  Alcotest.check_raises "budget < 1"
    (Invalid_argument "Transport.retry: budget < 1") (fun () ->
      ignore (Transport.retry ~jitter:(Rng.create 14) ~budget:0))

let () =
  Alcotest.run "netsim"
    [
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "cascade" `Quick test_engine_cascade;
          Alcotest.test_case "past raises" `Quick test_engine_past_raises;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "until after drain" `Quick
            test_engine_until_drained;
          Alcotest.test_case "until never backwards" `Quick
            test_engine_until_never_backwards;
          Alcotest.test_case "queue-depth high water" `Quick
            test_engine_queue_high_water;
        ] );
      ( "packet",
        [
          Alcotest.test_case "defaults" `Quick test_packet_defaults;
          Alcotest.test_case "tunneled hides" `Quick test_packet_tunneled_hides;
          Alcotest.test_case "encrypted hides app" `Quick test_packet_encrypted_hides_app;
          Alcotest.test_case "bad size" `Quick test_packet_bad_size;
        ] );
      ( "link",
        [
          Alcotest.test_case "delay model" `Quick test_link_delay;
          Alcotest.test_case "queueing" `Quick test_link_queueing;
          Alcotest.test_case "drop when full" `Quick test_link_drop_when_full;
          Alcotest.test_case "drains" `Quick test_link_drains;
          Alcotest.test_case "decreasing now raises" `Quick
            test_link_decreasing_now_raises;
          Alcotest.test_case "down/up fault" `Quick test_link_down_up;
          Alcotest.test_case "loss and corrupt faults" `Quick
            test_link_loss_and_corrupt;
          Alcotest.test_case "latency spike" `Quick test_link_latency_spike;
          Alcotest.test_case "fault validation" `Quick
            test_link_fault_validation;
          QCheck_alcotest.to_alcotest prop_link_ring_matches_list;
          QCheck_alcotest.to_alcotest prop_fold_distinct_matches_memq;
          Alcotest.test_case "fold_distinct shared labels" `Quick
            test_fold_distinct_shared_labels;
        ] );
      ( "topology",
        [
          Alcotest.test_case "line" `Quick test_topology_line;
          Alcotest.test_case "ring" `Quick test_topology_ring;
          Alcotest.test_case "star" `Quick test_topology_star;
          Alcotest.test_case "grid" `Quick test_topology_grid;
          Alcotest.test_case "barabasi-albert" `Quick test_topology_barabasi_albert;
          Alcotest.test_case "barabasi-albert pinned" `Quick
            test_topology_barabasi_albert_pinned;
          Alcotest.test_case "two-tier" `Quick test_topology_two_tier;
          Alcotest.test_case "two-tier relationships" `Quick
            test_topology_two_tier_relationships;
        ] );
      ( "middlebox",
        [
          Alcotest.test_case "port filter" `Quick test_middlebox_port_filter;
          Alcotest.test_case "app filter" `Quick test_middlebox_app_filter;
          Alcotest.test_case "trust firewall" `Quick test_middlebox_trust_firewall;
          Alcotest.test_case "qos stripper" `Quick test_middlebox_qos_stripper;
        ] );
      ( "net",
        [
          Alcotest.test_case "drop record round-trips" `Quick
            test_drop_of_flight_roundtrip;
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "filter drop" `Quick test_net_filter_drop;
          Alcotest.test_case "no route" `Quick test_net_no_route;
          Alcotest.test_case "source route waypoint" `Quick
            test_net_source_route_waypoint;
          Alcotest.test_case "ttl" `Quick test_net_ttl;
          Alcotest.test_case "queue loss" `Quick test_net_queue_loss;
          Alcotest.test_case "degraded flag" `Quick test_net_degraded_flag;
          Alcotest.test_case "duplicate id" `Quick test_net_duplicate_id_rejected;
          Alcotest.test_case "node out of range" `Quick test_net_node_out_of_range;
        ] );
      ( "transport",
        [
          Alcotest.test_case "completes" `Quick test_transport_completes;
          Alcotest.test_case "loss recovery" `Quick test_transport_losses_recovered;
          Alcotest.test_case "two compliant share" `Quick
            test_transport_two_compliant_share;
          Alcotest.test_case "aggressive starves" `Quick
            test_transport_aggressive_starves;
          Alcotest.test_case "validation" `Quick test_transport_validation;
          Alcotest.test_case "survives down window" `Quick
            test_transport_survives_down_window;
          Alcotest.test_case "abandons dead path" `Quick
            test_transport_abandons_dead_path;
          Alcotest.test_case "stalled probe" `Quick test_transport_stalled_probe;
          Alcotest.test_case "resilience validation" `Quick
            test_transport_resilience_validation;
        ] );
      ( "nat",
        [
          Alcotest.test_case "outbound rewrite" `Quick test_nat_outbound_rewrite;
          Alcotest.test_case "reply comes back" `Quick test_nat_reply_comes_back;
          Alcotest.test_case "unsolicited dies" `Quick test_nat_unsolicited_dies;
          Alcotest.test_case "port forward" `Quick test_nat_port_forward;
          Alcotest.test_case "validation" `Quick test_nat_validation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "serves semantics" `Quick test_cache_serves_semantics;
        ] );
      ( "diagnosis",
        [
          Alcotest.test_case "clean" `Quick test_diagnosis_clean;
          Alcotest.test_case "confession" `Quick test_diagnosis_confession;
          Alcotest.test_case "covert bracket" `Quick test_diagnosis_covert_bracket;
          Alcotest.test_case "dead first hop" `Quick test_diagnosis_dead_first_hop;
          Alcotest.test_case "last hop" `Quick test_diagnosis_last_hop;
          Alcotest.test_case "short path" `Quick test_diagnosis_short_path;
          Alcotest.test_case "two-node path" `Quick test_diagnosis_two_node_path;
          Alcotest.test_case "first hop vs destination" `Quick
            test_diagnosis_first_hop_vs_destination;
          Alcotest.test_case "revealing at bracket boundary" `Quick
            test_diagnosis_revealing_at_bracket_boundary;
          Alcotest.test_case "net probe reused id" `Quick
            test_net_probe_reused_id;
        ] );
      ( "congestion",
        [
          Alcotest.test_case "jain index" `Quick test_congestion_jain;
          Alcotest.test_case "max-min allocation" `Quick test_congestion_max_min;
          Alcotest.test_case "all honest" `Quick test_congestion_all_honest;
          Alcotest.test_case "cheater starves fifo" `Quick
            test_congestion_cheater_starves_fifo;
          Alcotest.test_case "fq protects" `Quick test_congestion_fq_protects;
          Alcotest.test_case "validation" `Quick test_congestion_validation;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "constant spacing" `Quick test_traffic_constant_spacing;
          Alcotest.test_case "fresh ids" `Quick test_traffic_fresh_ids;
        ] );
    ]
