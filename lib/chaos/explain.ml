module Flight = Tussle_obs.Flight
module Json = Tussle_obs.Json
module Plan = Tussle_fault.Plan

type result = {
  entry : Corpus.entry;
  obs : Invariant.obs;
  violations : Invariant.violation list;
  events : Flight.event list;
  overwritten : int;
  narrative : string;
}

(* ---------- formatting ---------- *)

(* One float format everywhere: the narrative's determinism contract
   is byte-identity for a given (plan, seed), so every number flows
   through here. *)
let ft x = Printf.sprintf "%g" x

let flow_label flow =
  if flow >= 0 then Printf.sprintf "packet %d" flow
  else if flow = Flight.control_flow then "control"
  else Printf.sprintf "transfer #%d" (-flow - 1)

(* ---------- episode attribution ---------- *)

let in_window (w : Plan.window) t = t >= w.Plan.from_s && t < w.Plan.until_s

let edge_eq u v n p = (u = n && v = p) || (u = p && v = n)

(* Route-dependent drops (no-route, ttl-exceeded, queue-full) are a
   global consequence of the topology a fault carved up, so any open
   topology episode explains them; wire-level drops must match the
   faulted link itself. *)
let episode_explains (e : Flight.event) (spec : Plan.spec) =
  let t = e.Flight.sim_t in
  let indirect =
    match e.Flight.detail with
    | "no-route" | "ttl-exceeded" | "queue-full" -> true
    | _ -> false
  in
  match spec with
  | Plan.Link_down { u; v; w } ->
    in_window w t
    && ((e.Flight.detail = "link-down" && edge_eq u v e.Flight.node e.Flight.peer)
       || indirect)
  | Plan.Link_loss { u; v; w; _ } ->
    e.Flight.detail = "fault-loss" && in_window w t
    && edge_eq u v e.Flight.node e.Flight.peer
  | Plan.Link_corrupt { u; v; w; _ } ->
    e.Flight.detail = "corrupted" && in_window w t
    && edge_eq u v e.Flight.node e.Flight.peer
  | Plan.Latency_spike _ -> false
  | Plan.Node_crash { node; w } ->
    in_window w t
    && ((e.Flight.detail = "link-down"
        && (e.Flight.node = node || e.Flight.peer = node))
       || indirect)
  | Plan.Middlebox_break { node; w; _ } ->
    in_window w t
    && e.Flight.detail = "filtered:" ^ Plan.broken_device_name
    && e.Flight.node = node
  | Plan.Gray_loss { u; v; w; _ } ->
    e.Flight.detail = "gray-loss" && in_window w t
    && edge_eq u v e.Flight.node e.Flight.peer
  | Plan.Unidirectional_down { u; v; w } ->
    (* drops carry the sending direction (node -> peer), so only the
       faulted direction matches — the healthy reverse path never
       gets blamed *)
    in_window w t
    && ((e.Flight.detail = "link-down"
        && e.Flight.node = u && e.Flight.peer = v)
       || indirect)
  | Plan.Link_flap { u; v; w; _ } ->
    (* a "link-down" drop on this edge inside the window can only have
       happened during a down phase, so no phase arithmetic is needed *)
    in_window w t
    && ((e.Flight.detail = "link-down" && edge_eq u v e.Flight.node e.Flight.peer)
       || indirect)
  | Plan.Blackhole { node; w } ->
    in_window w t
    && ((e.Flight.detail = "blackholed" && e.Flight.node = node) || indirect)

let attribution plan (e : Flight.event) =
  let hits =
    List.mapi (fun i spec -> (i, spec)) plan
    |> List.filter (fun (_, spec) -> episode_explains e spec)
  in
  match hits with
  | [] -> "no episode open at this time"
  | hits ->
    "during "
    ^ String.concat ", "
        (List.map
           (fun (i, spec) ->
             Printf.sprintf "episode [%d] %s" i (Plan.spec_string spec))
           hits)

(* ---------- per-event lines ---------- *)

let location (e : Flight.event) =
  if e.Flight.peer >= 0 then
    Printf.sprintf "link %d-%d" e.Flight.node e.Flight.peer
  else Printf.sprintf "node %d" e.Flight.node

let event_line plan (e : Flight.event) =
  let t = ft e.Flight.sim_t in
  match e.Flight.kind with
  | "inject" ->
    Printf.sprintf "t=%ss inject at node %d toward node %d (%s, %sB)" t
      e.Flight.node e.Flight.peer e.Flight.detail (ft e.Flight.value)
  | "hop" ->
    Printf.sprintf "t=%ss forwarded %d->%d (queue depth %s)" t e.Flight.node
      e.Flight.peer (ft e.Flight.value)
  | "mb-degrade" ->
    Printf.sprintf "t=%ss middlebox %S at node %d degraded QoS" t
      e.Flight.detail e.Flight.node
  | "mb-tap" ->
    Printf.sprintf "t=%ss middlebox %S at node %d tapped a copy" t
      e.Flight.detail e.Flight.node
  | "drop" ->
    Printf.sprintf "t=%ss DROPPED at %s: %s — %s" t (location e)
      e.Flight.detail (attribution plan e)
  | "deliver" ->
    Printf.sprintf "t=%ss delivered at node %d (latency %ss%s)" t
      e.Flight.node (ft e.Flight.value)
      (if e.Flight.detail = "" then "" else ", " ^ e.Flight.detail)
  | "xfer-start" ->
    Printf.sprintf "t=%ss transfer opened %d->%d (%s, %s packets)" t
      e.Flight.node e.Flight.peer e.Flight.detail (ft e.Flight.value)
  | "xfer-send" ->
    Printf.sprintf "t=%ss sent seq %d as packet %d (attempt %s)" t
      e.Flight.node e.Flight.peer (ft (e.Flight.value +. 1.0))
  | "xfer-timer" ->
    Printf.sprintf
      "t=%ss seq %d (packet %d) lost to %s; retransmission timer %ss" t
      e.Flight.node e.Flight.peer e.Flight.detail (ft e.Flight.value)
  | "xfer-complete" ->
    Printf.sprintf "t=%ss transfer COMPLETED in %ss" t (ft e.Flight.value)
  | "xfer-abandon" ->
    Printf.sprintf "t=%ss transfer ABANDONED (%s) with %s acked" t
      e.Flight.detail (ft e.Flight.value)
  | "fault-open" ->
    Printf.sprintf "t=%ss fault opens:  [%s] %s" t (ft e.Flight.value)
      e.Flight.detail
  | "fault-close" ->
    Printf.sprintf "t=%ss fault closes: [%s] %s" t (ft e.Flight.value)
      e.Flight.detail
  | "heal-detect" ->
    Printf.sprintf "t=%ss selfheal detects link %d-%d %s" t e.Flight.node
      e.Flight.peer e.Flight.detail
  | "heal-reconverge" ->
    Printf.sprintf
      "t=%ss selfheal reconverges (%s adjacencies believed down)" t
      (ft e.Flight.value)
  | kind ->
    Printf.sprintf "t=%ss %s %s" t kind e.Flight.detail

(* ---------- flows of interest ---------- *)

let interesting_kind = function
  | "drop" | "xfer-abandon" -> true
  | _ -> false

(* Flows that dropped a packet or gave up, in order of first
   appearance; the cap keeps narratives readable for storms. *)
let max_flows = 5

let flows_of_interest events =
  let order = ref [] in
  let by_flow = Hashtbl.create 64 in
  List.iter
    (fun (e : Flight.event) ->
      if e.Flight.flow <> Flight.control_flow then begin
        (match Hashtbl.find_opt by_flow e.Flight.flow with
        | None ->
          order := e.Flight.flow :: !order;
          Hashtbl.replace by_flow e.Flight.flow ([ e ], interesting_kind e.Flight.kind)
        | Some (es, hit) ->
          Hashtbl.replace by_flow e.Flight.flow
            (e :: es, hit || interesting_kind e.Flight.kind))
      end)
    events;
  List.rev !order
  |> List.filter_map (fun flow ->
         match Hashtbl.find by_flow flow with
         | es, true -> Some (flow, List.rev es)
         | _, false -> None)

let render_flows buf plan events =
  let flows = flows_of_interest events in
  let shown = List.filteri (fun i _ -> i < max_flows) flows in
  (match shown with
  | [] ->
    Buffer.add_string buf
      "flows of interest: none (no drops, no abandoned transfers)\n"
  | _ ->
    Buffer.add_string buf
      (Printf.sprintf "flows of interest (%d of %d with drops or abandonment):\n"
         (List.length shown) (List.length flows));
    List.iter
      (fun (flow, es) ->
        Buffer.add_string buf (Printf.sprintf "  %s:\n" (flow_label flow));
        List.iter
          (fun e ->
            Buffer.add_string buf ("    " ^ event_line plan e ^ "\n"))
          es)
      shown);
  if List.length flows > max_flows then
    Buffer.add_string buf
      (Printf.sprintf "  ... and %d more flow(s) not shown\n"
         (List.length flows - max_flows))

(* ---------- the narrative ---------- *)

let render ~(entry : Corpus.entry) ~(obs : Invariant.obs) ~violations
    ~events ~overwritten =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "tussle explain: scenario %s, seed %d\n" entry.Corpus.scenario
    entry.Corpus.seed;
  add "plan (%d episode(s)):\n" (List.length entry.Corpus.plan);
  List.iteri
    (fun i spec -> add "  [%d] %s\n" i (Plan.spec_string spec))
    entry.Corpus.plan;
  (match violations with
  | [] ->
    add "verdict: clean — all %d invariants hold\n"
      (List.length Invariant.names)
  | vs ->
    add "verdict: %d violation(s)\n" (List.length vs);
    List.iter (fun v -> add "  - %s\n" (Invariant.violation_string v)) vs);
  add "ledger: injected %d  delivered %d  dropped %d  in-flight %d  \
       engine-pending %d\n"
    obs.Invariant.injected obs.Invariant.delivered obs.Invariant.dropped
    obs.Invariant.in_flight obs.Invariant.engine_pending;
  (match obs.Invariant.drops_by_reason with
  | [] -> add "drops by reason: none\n"
  | reasons ->
    add "drops by reason:\n";
    List.iter (fun (label, n) -> add "  %s: %d\n" label n) reasons);
  (match obs.Invariant.transfers with
  | [] -> ()
  | ts ->
    add "transfers: %s\n"
      (String.concat ", "
         (List.map
            (function
              | Invariant.Completed -> "completed"
              | Invariant.Abandoned -> "abandoned"
              | Invariant.Active -> "active")
            ts)));
  add "recorded %d event(s) (%d overwritten by ring wrap-around)\n"
    (List.length events) overwritten;
  let control =
    List.filter
      (fun (e : Flight.event) -> e.Flight.flow = Flight.control_flow)
      events
  in
  (match control with
  | [] -> add "control plane: quiet (no fault windows, no reconvergence)\n"
  | cs ->
    add "control plane:\n";
    List.iter
      (fun e ->
        add "  %s\n" (event_line entry.Corpus.plan e))
      cs);
  render_flows buf entry.Corpus.plan events;
  Buffer.contents buf

let narrative_of_violation ~(entry : Corpus.entry) ~events violation =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "violation: %s\n" (Invariant.violation_string violation));
  render_flows buf entry.Corpus.plan events;
  Buffer.contents buf

(* ---------- the replay ---------- *)

let run (entry : Corpus.entry) =
  match Scenario.find entry.Corpus.scenario with
  | None ->
    Error (Printf.sprintf "unknown scenario %S" entry.Corpus.scenario)
  | Some sc ->
    (* The scenario runs in the calling domain: single-threaded, so
       the event stream — and hence the narrative — is identical
       whatever domain count the CLI was invoked with. *)
    Flight.enable ();
    Flight.reset ();
    let obs =
      Fun.protect
        ~finally:(fun () -> Flight.disable ())
        (fun () ->
          sc.Scenario.run ~seed:entry.Corpus.seed ~plan:entry.Corpus.plan)
    in
    let events = Flight.events () in
    let overwritten = Flight.dropped () in
    Flight.reset ();
    let violations = Invariant.check obs in
    let narrative = render ~entry ~obs ~violations ~events ~overwritten in
    Ok { entry; obs; violations; events; overwritten; narrative }

(* ---------- the artifact ---------- *)

let schema = "tussle.flow-trace/1"

let event_to_json (e : Flight.event) =
  Json.Obj
    [
      ("t", Json.Float e.Flight.sim_t);
      ("flow", Json.Int e.Flight.flow);
      ("kind", Json.Str e.Flight.kind);
      ("node", Json.Int e.Flight.node);
      ("peer", Json.Int e.Flight.peer);
      ("detail", Json.Str e.Flight.detail);
      ("value", Json.Float e.Flight.value);
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("scenario", Json.Str r.entry.Corpus.scenario);
      ("seed", Json.Int r.entry.Corpus.seed);
      ( "plan",
        Json.List
          (List.map (fun s -> Json.Str (Plan.spec_string s)) r.entry.Corpus.plan)
      );
      ("clean", Json.Bool (r.violations = []));
      ( "violations",
        Json.List
          (List.map
             (fun (v : Invariant.violation) ->
               Json.Obj
                 [
                   ("invariant", Json.Str v.Invariant.invariant);
                   ("detail", Json.Str v.Invariant.detail);
                 ])
             r.violations) );
      ( "ledger",
        Json.Obj
          [
            ("injected", Json.Int r.obs.Invariant.injected);
            ("delivered", Json.Int r.obs.Invariant.delivered);
            ("dropped", Json.Int r.obs.Invariant.dropped);
            ("in_flight", Json.Int r.obs.Invariant.in_flight);
            ("engine_pending", Json.Int r.obs.Invariant.engine_pending);
          ] );
      ( "drops_by_reason",
        Json.Obj
          (List.map
             (fun (label, n) -> (label, Json.Int n))
             r.obs.Invariant.drops_by_reason) );
      ("events_recorded", Json.Int (List.length r.events));
      ("events_overwritten", Json.Int r.overwritten);
      ("events", Json.List (List.map event_to_json r.events));
    ]

let ( let* ) = Json.( let* )

(* Every decoding error reads "flow-trace: missing or ill-typed PATH";
   the path is only formatted once a field has failed. *)
let ill_typed path = Error ("flow-trace: missing or ill-typed " ^ path)

let field what conv j =
  match Json.field what conv j with Ok v -> Ok v | Error _ -> ill_typed what

let validate_event i ev =
  let check what conv =
    match Json.field what conv ev with
    | Ok _ -> Ok ()
    | Error _ -> ill_typed (Printf.sprintf "events[%d].%s" i what)
  in
  let* () = check "t" Json.to_float in
  let* () = check "flow" Json.to_int in
  let* () = check "kind" Json.to_str in
  let* () = check "node" Json.to_int in
  let* () = check "peer" Json.to_int in
  let* () = check "detail" Json.to_str in
  check "value" Json.to_float

let validate_json j =
  let* tag = field "schema" Json.to_str j in
  if tag <> schema then
    Error (Printf.sprintf "flow-trace: schema %S, expected %S" tag schema)
  else
    let* _ = field "scenario" Json.to_str j in
    let* _ = field "seed" Json.to_int j in
    let* plan = field "plan" Json.to_list j in
    let* () =
      if List.for_all (fun p -> Json.to_str p <> None) plan then Ok ()
      else Error "flow-trace: plan contains a non-string episode"
    in
    let* _ = field "clean" Json.to_bool j in
    let* ledger = field "ledger" Option.some j in
    let* _ =
      Json.list
        (fun what ->
          match Json.field what Json.to_int ledger with
          | Ok n -> Ok n
          | Error _ -> ill_typed ("ledger." ^ what))
        [ "injected"; "delivered"; "dropped"; "in_flight"; "engine_pending" ]
    in
    let* events = field "events" Json.to_list j in
    let* recorded = field "events_recorded" Json.to_int j in
    if recorded <> List.length events then
      Error
        (Printf.sprintf "flow-trace: events_recorded %d but %d events"
           recorded (List.length events))
    else
      let rec each i = function
        | [] -> Ok ()
        | ev :: rest ->
          let* () = validate_event i ev in
          each (i + 1) rest
      in
      each 0 events
