module Graph = Tussle_prelude.Graph
module Rng = Tussle_prelude.Rng
module Flight = Tussle_obs.Flight
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Link = Tussle_netsim.Link
module Packet = Tussle_netsim.Packet

type detector = Hello_only | Verified

let hello_interval = 0.05
let hellos_missed = 2
let recompute_delay = 0.1
let probe_interval = 0.05

(* The data-plane detector: probes per adjacency direction per batch,
   the sliding window in batches, and the hysteresis thresholds on the
   windowed delivered/offered ratio (down at or below, up at or
   above). *)
let probes_per_sample = 4
let window = 4
let down_ratio = 0.5
let up_ratio = 0.9

(* Transit probes: the deadline after which an unanswered probe counts
   as a silent discard, the base quarantine (doubled per re-detection)
   and the seed of every probe draw. *)
let probe_timeout = 0.3
let quarantine_s = 2.0
let probe_seed = 0x5EED

(* Flap damping: penalty charged per believed-state flip, its
   half-life in seconds, and the hold-down thresholds. *)
let flip_penalty = 1.0
let half_life = 1.0
let suppress = 2.5
let reuse = 0.5

(* Transit probes are real packets; their ids live in a reserved range
   so observers (and tests) can tell them from scenario traffic. *)
let probe_id_base = 900_000_000

(* A sliding window over the last [w] (delivered, offered) samples,
   in one int array: delivered counts in [0, w), offered counts in
   [w, 2w), and the slot the next sample overwrites at [2w].  Unused
   slots hold (0, 0), which adds nothing to either sum. *)
module Window = struct
  type t = int array

  let create w =
    if w < 1 then invalid_arg "Selfheal.Window.create: width must be >= 1";
    Array.make ((2 * w) + 1) 0

  let push a ~delivered ~offered =
    let w = Array.length a / 2 in
    let i = a.(2 * w) in
    a.(i) <- delivered;
    a.(w + i) <- offered;
    a.(2 * w) <- (if i + 1 = w then 0 else i + 1)

  let ratio a =
    let w = Array.length a / 2 in
    let delivered = ref 0 and offered = ref 0 in
    for i = 0 to w - 1 do
      delivered := !delivered + a.(i);
      offered := !offered + a.(w + i)
    done;
    if !offered = 0 then 1.0
    else float_of_int !delivered /. float_of_int !offered
end

(* One adjacency under watch: every physical link object carrying
   traffic between u and v (both directions; deduplicated in case an
   undirected label is shared), plus the per-direction subsets the
   data-plane detector probes separately — a unidirectional fault
   shows up in exactly one of them.  [Hello_only] reads only [links]:
   its direction buckets are empty and its windows [[||]]. *)
type watch = {
  u : int;
  v : int;
  links : Link.t list;
  uv_links : Link.t list;
  vu_links : Link.t list;
  mutable missed : int;
  mutable declared_down : bool;  (* the hello detector's verdict *)
  mutable dp_down : bool;  (* the data-plane detector's verdict *)
  (* the data-plane detector's probe windows, one per direction *)
  uv_window : Window.t;
  vu_window : Window.t;
  (* flap damping: an exponentially decaying penalty, charged per
     believed-state flip; the adjacency is suppressed (held down)
     while the penalty sits above the suppress threshold *)
  mutable penalty : float;
  mutable penalty_time : float;
  mutable suppressed : bool;
  (* when a detector flag (declared_down / dp_down / suppressed) last
     cleared: lets the transit-probe judge discount a loss on a leg
     that was believed faulty at any point while the probe was in
     flight, not just at its deadline *)
  mutable flag_cleared_at : float;
}

(* Byzantine-node bookkeeping for the transit prober. *)
type quarantine = {
  mutable active : bool;
  mutable q_until : float;
  mutable strikes : int;  (* escalates the hold time on re-detection *)
  mutable fails : int;  (* consecutive failed transit probes *)
}

type t = {
  detector : detector;
  metric : [ `Latency | `Hops ];
  engine : Engine.t;
  net : Net.t;
  until : float;
  watches : watch list;
  mutable table : Linkstate.t;
  mutable recompute_pending : bool;
  mutable reconvergences : int;
  mutable reconvergence_times : float list; (* reversed *)
  mutable detections : ((int * int) * [ `Down | `Up ] * float) list;
    (* reversed *)
  mutable suppressions : int;
  (* data-plane state (unused by [Hello_only]) *)
  probe_rng : Rng.t;
  (* each node's distinct neighbours, ascending, fixed at attach *)
  neighbors : int array array;
  quarantines : quarantine array;  (* per node; [||] for [Hello_only] *)
  (* The outstanding transit probes, ids [first_outstanding,
     next_probe_id), as a FIFO ring of judgments: probe [id] sits at
     slot [(ring_head + id - first_outstanding) land (length - 1)],
     the length a power of two.  Ids are handed out in order and every
     deadline lies [probe_timeout] after its send, so deadlines fire in
     id order and always retire the oldest probe. *)
  mutable ring : int array;
  mutable ring_head : int;
  mutable first_outstanding : int;
  mutable next_probe_id : int;
}

(* A probe's judgment: [unanswered] until its completion, if any, is
   observed before the deadline. *)
let unanswered = 0
let passed = 1
let failed = 2
let inconclusive = 3

(* One pass buckets every link by adjacency (either orientation) and,
   for the data-plane detector, by directed pair.  Each bucket keeps
   its links in first-seen edge order, without duplicates. *)
let build_watches ~detector links =
  let verified = detector = Verified in
  let pairs = Hashtbl.create 16 and directed = Hashtbl.create 16 in
  let order = ref [] in
  let add tbl key l =
    match Hashtbl.find_opt tbl key with
    | None ->
      Hashtbl.replace tbl key [ l ];
      true
    | Some ls ->
      if not (List.memq l ls) then Hashtbl.replace tbl key (l :: ls);
      false
  in
  Graph.iter_edges links (fun a b l ->
      let key = if a <= b then (a, b) else (b, a) in
      if add pairs key l then order := key :: !order;
      if verified then ignore (add directed (a, b) l));
  let bucket tbl key =
    match Hashtbl.find_opt tbl key with Some ls -> List.rev ls | None -> []
  in
  let fresh_window () = if verified then Window.create window else [||] in
  List.rev_map
    (fun ((u, v) as key) ->
      {
        u;
        v;
        links = bucket pairs key;
        uv_links = (if verified then bucket directed (u, v) else []);
        vu_links = (if verified then bucket directed (v, u) else []);
        missed = 0;
        declared_down = false;
        dp_down = false;
        uv_window = fresh_window ();
        vu_window = fresh_window ();
        penalty = 0.0;
        penalty_time = 0.0;
        suppressed = false;
        flag_cleared_at = neg_infinity;
      })
    !order

let node_quarantined t node =
  node < Array.length t.quarantines && t.quarantines.(node).active

let believed_down t =
  List.filter_map
    (fun w ->
      if
        w.declared_down || w.dp_down || w.suppressed
        || node_quarantined t w.u || node_quarantined t w.v
      then Some (w.u, w.v)
      else None)
    t.watches

let install t engine =
  t.recompute_pending <- false;
  t.table <-
    Linkstate.compute_live ~down:(believed_down t) (Net.links t.net)
      ~metric:t.metric;
  Net.set_forwarding t.net (Linkstate.forwarding t.table);
  t.reconvergences <- t.reconvergences + 1;
  t.reconvergence_times <- Engine.now engine :: t.reconvergence_times;
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now engine) ~flow:Flight.control_flow
      ~node:(-1) ~peer:(-1) ~detail:"routes-installed"
      ~value:(float_of_int (List.length (believed_down t)))
      "heal-reconverge"

(* Coalesce: a topology change noticed while a recompute is already
   scheduled folds into that recompute (it reads the believed-down set
   when it fires), mirroring a real control plane's SPF hold-down. *)
let request_recompute t engine =
  if not t.recompute_pending then begin
    t.recompute_pending <- true;
    Engine.schedule_after engine recompute_delay (fun engine ->
        install t engine)
  end

(* ---------- flap damping ---------- *)

let decay_penalty w now =
  if w.penalty > 0.0 then begin
    let dt = now -. w.penalty_time in
    if dt > 0.0 then
      w.penalty <- w.penalty *. (0.5 ** (dt /. half_life))
  end;
  w.penalty_time <- now

(* Every believed-state flip of an adjacency routes through here.  For
   [Hello_only] it is just a recompute request; [Verified] damps: each
   flip charges the penalty, and a watch whose penalty crosses the
   suppress threshold is held down — further flips are absorbed without
   touching the tables until the penalty decays below reuse. *)
let note_flip t w engine =
  match t.detector with
  | Hello_only -> request_recompute t engine
  | Verified ->
    let now = Engine.now engine in
    decay_penalty w now;
    w.penalty <- w.penalty +. flip_penalty;
    if w.suppressed then ()
    else if w.penalty >= suppress then begin
      w.suppressed <- true;
      t.suppressions <- t.suppressions + 1;
      if Flight.enabled () then
        Flight.emit ~sim_t:now ~flow:Flight.control_flow ~node:w.u ~peer:w.v
          ~detail:"suppress" ~value:w.penalty "heal-damp";
      request_recompute t engine
    end
    else request_recompute t engine

(* Called from the hello tick (the one timer that always runs): let a
   suppressed watch out of hold-down once its penalty has decayed. *)
let damping_release t engine =
  match t.detector with
  | Hello_only -> ()
  | Verified ->
    let now = Engine.now engine in
    List.iter
      (fun w ->
        if w.suppressed then begin
          decay_penalty w now;
          if w.penalty <= reuse then begin
            w.suppressed <- false;
            w.flag_cleared_at <- now;
            if Flight.enabled () then
              Flight.emit ~sim_t:now ~flow:Flight.control_flow ~node:w.u
                ~peer:w.v ~detail:"reuse" ~value:w.penalty "heal-damp";
            request_recompute t engine
          end
        end)
      t.watches

(* ---------- the hello (control-plane) detector ---------- *)

let declare t w engine verdict ~detail =
  t.detections <- ((w.u, w.v), verdict, Engine.now engine) :: t.detections;
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now engine) ~flow:Flight.control_flow
      ~node:w.u ~peer:w.v ~detail ~value:0.0 "heal-detect";
  note_flip t w engine

let rec tick t engine =
  List.iter
    (fun w ->
      let up = List.for_all Link.is_up w.links in
      if up then begin
        w.missed <- 0;
        if w.declared_down then begin
          w.declared_down <- false;
          w.flag_cleared_at <- Engine.now engine;
          declare t w engine `Up ~detail:"up"
        end
      end
      else begin
        w.missed <- w.missed + 1;
        if (not w.declared_down) && w.missed >= hellos_missed then begin
          w.declared_down <- true;
          declare t w engine `Down ~detail:"down"
        end
      end)
    t.watches;
  damping_release t engine;
  let next = Engine.now engine +. hello_interval in
  if next <= t.until then Engine.schedule engine next (tick t)

(* ---------- the data-plane detector ---------- *)

(* One probe of a direction passes iff every link object carrying that
   direction would deliver — [Link.probe] is virtual, so sampling
   perturbs neither the traffic ledgers nor the episode fault
   streams. *)
let rec all_probe_ok rng = function
  | [] -> true
  | l :: rest -> Link.probe l rng && all_probe_ok rng rest

(* How many of [n] probes of a direction were delivered.  A direction
   with no links can't drop: vacuously healthy. *)
let sample_direction t links n =
  match links with
  | [] -> n
  | _ ->
    let ok = ref 0 in
    for _ = 1 to n do
      if all_probe_ok t.probe_rng links then incr ok
    done;
    !ok

(* Windowed delivered/offered accounting with hysteresis: down on
   data-plane evidence even when every hello passes (gray failure,
   unidirectional fault); back up only once the windowed ratio has
   genuinely recovered. *)
let dp_sample_adjacencies t engine =
  List.iter
    (fun w ->
      let uv = sample_direction t w.uv_links probes_per_sample in
      let vu = sample_direction t w.vu_links probes_per_sample in
      Window.push w.uv_window ~delivered:uv ~offered:probes_per_sample;
      Window.push w.vu_window ~delivered:vu ~offered:probes_per_sample;
      let worst =
        Float.min (Window.ratio w.uv_window) (Window.ratio w.vu_window)
      in
      if (not w.dp_down) && worst <= down_ratio then begin
        w.dp_down <- true;
        declare t w engine `Down ~detail:"down:data-plane"
      end
      else if w.dp_down && worst >= up_ratio then begin
        w.dp_down <- false;
        w.flag_cleared_at <- Engine.now engine;
        declare t w engine `Up ~detail:"up:data-plane"
      end)
    t.watches

(* ---------- transit probes (Byzantine-node detection) ---------- *)

(* Every node's distinct neighbours (either edge orientation),
   ascending, in O(n + m): one pass over the edges collects each
   node's incident ends, then visiting nodes in descending order and
   prepending sorts every list, with any repeat at its head. *)
let neighbor_table g =
  let n = Graph.node_count g in
  let incident = Array.make n [] and sorted = Array.make n [] in
  Graph.iter_edges g (fun a b _ ->
      incident.(a) <- b :: incident.(a);
      incident.(b) <- a :: incident.(b));
  for v = n - 1 downto 0 do
    List.iter
      (fun w ->
        match sorted.(w) with
        | x :: _ when x = v -> ()
        | ns -> sorted.(w) <- v :: ns)
      incident.(v)
  done;
  Array.map Array.of_list sorted

let quarantine t engine node =
  let q = t.quarantines.(node) in
  let now = Engine.now engine in
  let hold = quarantine_s *. (2.0 ** float_of_int q.strikes) in
  q.active <- true;
  q.q_until <- now +. hold;
  q.strikes <- q.strikes + 1;
  q.fails <- 0;
  if Flight.enabled () then
    Flight.emit ~sim_t:now ~flow:Flight.control_flow ~node ~peer:(-1)
      ~detail:"quarantine" ~value:hold "heal-quarantine";
  request_recompute t engine;
  Engine.schedule engine q.q_until (fun engine ->
      if q.active && Engine.now engine >= q.q_until then begin
        q.active <- false;
        if Flight.enabled () then
          Flight.emit ~sim_t:(Engine.now engine) ~flow:Flight.control_flow
            ~node ~peer:(-1) ~detail:"probation" ~value:0.0
            "heal-quarantine";
        request_recompute t engine
      end)

(* Was the (a, b) adjacency flagged by any detector at some point since
   [since]?  Used to avoid blaming a transit node for a loss a link
   fault explains.  Current flags count, and so does a flag that
   cleared after the probe left — a probe can die on a faulty leg and
   only be judged after the detectors have moved on. *)
let leg_faulted t ~since a b =
  List.exists
    (fun w ->
      ((w.u = a && w.v = b) || (w.u = b && w.v = a))
      && (w.declared_down || w.dp_down || w.suppressed
         || w.flag_cleared_at >= since))
    t.watches

(* Judge an outstanding probe at its deadline.  A probe the prober can
   itself explain — no route toward the transit node (e.g. quarantine),
   or a leg of the probe path the link detectors flagged as faulty at
   any point since the probe was sent — is inconclusive, not evidence;
   only a loss with both legs believed healthy throughout reads as a
   silent discard by the transit node. *)
let judge_probe t engine judgment ~sent ~via ~u ~v =
  let q = t.quarantines.(via) in
  if judgment = passed then q.fails <- 0
  else if judgment = inconclusive then ()
  else if
    not (leg_faulted t ~since:sent u via || leg_faulted t ~since:sent via v)
  then begin
    (* lost without explanation, or still unaccounted for at the
       deadline: a strike against the transit node *)
    q.fails <- q.fails + 1;
    if (not q.active) && q.fails >= 2 then quarantine t engine via
  end

(* Open a ring slot for the next probe id, doubling the ring (oldest
   probe first) when every slot is outstanding. *)
let open_probe t =
  let count = t.next_probe_id - t.first_outstanding in
  let len = Array.length t.ring in
  if count = len then begin
    let ring = Array.make (if len = 0 then 16 else 2 * len) unanswered in
    for i = 0 to count - 1 do
      ring.(i) <- t.ring.((t.ring_head + i) land (len - 1))
    done;
    t.ring <- ring;
    t.ring_head <- 0
  end;
  t.ring.((t.ring_head + count) land (Array.length t.ring - 1)) <- unanswered;
  let id = t.next_probe_id in
  t.next_probe_id <- id + 1;
  id

(* Retire the oldest outstanding probe and return its judgment. *)
let close_probe t =
  let judgment = t.ring.(t.ring_head) in
  t.ring_head <- (t.ring_head + 1) land (Array.length t.ring - 1);
  t.first_outstanding <- t.first_outstanding + 1;
  judgment

(* A transit probe through [via] runs from its lowest neighbour to one
   of the others, drawn uniformly. *)
let dp_send_transit_probes t engine =
  let now = Engine.now engine in
  Array.iteri
    (fun via ns ->
      let others = Array.length ns - 1 in
      if others > 0 && not (node_quarantined t via) then begin
        let u = ns.(0) in
        let v = ns.(1 + Rng.int t.probe_rng others) in
        let probe_id = open_probe t in
        let p =
          Packet.make ~id:probe_id ~src:u ~dst:v ~created:now
            ~source_route:[ via ] ~size_bytes:64 ()
        in
        Net.inject t.net engine p;
        Engine.schedule engine (now +. probe_timeout) (fun engine ->
            judge_probe t engine (close_probe t) ~sent:now ~via ~u ~v)
      end)
    t.neighbors

let rec dp_tick t engine =
  dp_sample_adjacencies t engine;
  dp_send_transit_probes t engine;
  let next = Engine.now engine +. probe_interval in
  (* stop early enough that every probe deadline fires before [until]:
     after that the control plane must go quiet so the engine drains *)
  if next +. probe_timeout <= t.until then
    Engine.schedule engine next (dp_tick t)

(* Completion observer: records the judgment the deadline event reads.
   Runs for every packet; only an outstanding probe's id falls in the
   ring, so scenario traffic and a probe completing after its deadline
   are ignored. *)
let observe_probe t p outcome =
  let i = p.Packet.id - t.first_outstanding in
  if i >= 0 && p.Packet.id < t.next_probe_id then
    t.ring.((t.ring_head + i) land (Array.length t.ring - 1)) <-
      (match (outcome : Net.outcome) with
      | Net.Delivered _ -> passed
      | Net.Lost Net.No_route ->
        (* the prober's own tables couldn't reach the waypoint (it may
           have withdrawn it itself); says nothing about the node *)
        inconclusive
      | Net.Lost _ -> failed)

(* ---------- attach ---------- *)

let attach ?(detector = Hello_only) ?(metric = `Latency) ~until engine net =
  if not (Float.is_finite until) || until < Engine.now engine then
    invalid_arg "Selfheal.attach: until must be finite and >= now";
  let table = Linkstate.compute_live (Net.links net) ~metric in
  Net.set_forwarding net (Linkstate.forwarding table);
  let t =
    {
      detector;
      metric;
      engine;
      net;
      until;
      watches = build_watches ~detector (Net.links net);
      table;
      recompute_pending = false;
      reconvergences = 0;
      reconvergence_times = [];
      detections = [];
      suppressions = 0;
      probe_rng = Rng.create probe_seed;
      neighbors =
        (match detector with
        | Hello_only -> [||]
        | Verified -> neighbor_table (Net.links net));
      quarantines =
        (match detector with
        | Hello_only -> [||]
        | Verified ->
          Array.init (Graph.node_count (Net.links net)) (fun _ ->
              { active = false; q_until = 0.0; strikes = 0; fails = 0 }));
      ring = [||];
      ring_head = 0;
      first_outstanding = probe_id_base;
      next_probe_id = probe_id_base;
    }
  in
  let first = Engine.now engine +. hello_interval in
  if first <= until then Engine.schedule engine first (tick t);
  (match detector with
  | Hello_only -> ()
  | Verified ->
    Net.on_complete net (observe_probe t);
    let first = Engine.now engine +. probe_interval in
    if first +. probe_timeout <= until then
      Engine.schedule engine first (dp_tick t));
  t

let table t = t.table

let reconvergences t = t.reconvergences

let reconvergence_times t = List.rev t.reconvergence_times

let detections t = List.rev t.detections

let suppressions t = t.suppressions
