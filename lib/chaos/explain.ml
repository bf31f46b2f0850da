module Flight = Tussle_obs.Flight
module Json = Tussle_obs.Json
module Plan = Tussle_fault.Plan
module Net = Tussle_netsim.Net

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

(* An episode explains a drop inside its window when the drop sits on
   the faulted link or node.  Route-dependent drops (no route, ttl
   exceeded, full queue) are a global consequence of the topology a
   fault carved up, so any open topology episode explains them.  A
   link-down drop on a flapping edge inside the window can only have
   happened during a down phase, so no phase arithmetic is needed; a
   unidirectional outage only explains drops in its own direction,
   since drops carry the sending direction. *)
let episode_explains ~t (drop : Net.drop_reason) (spec : Plan.spec) =
  let window =
    match (spec, drop) with
    | (Plan.Link_down { u; v; w } | Plan.Link_flap { u; v; w; _ }),
      Net.Link_down (a, b)
    | Plan.Link_loss { u; v; w; _ }, Net.Fault_loss (a, b)
    | Plan.Link_corrupt { u; v; w; _ }, Net.Corrupted (a, b)
    | Plan.Gray_loss { u; v; w; _ }, Net.Gray_loss (a, b)
      when edge_eq u v a b ->
      Some w
    | Plan.Unidirectional_down { u; v; w }, Net.Link_down (a, b)
      when a = u && b = v ->
      Some w
    | Plan.Node_crash { node; w }, Net.Link_down (a, b)
      when a = node || b = node ->
      Some w
    | Plan.Middlebox_break { node; w; _ }, Net.Filtered (name, n)
      when name = Plan.broken_device_name && n = node ->
      Some w
    | Plan.Blackhole { node; w }, Net.Blackholed n when n = node -> Some w
    | ( ( Plan.Link_down { w; _ }
        | Plan.Link_flap { w; _ }
        | Plan.Unidirectional_down { w; _ }
        | Plan.Node_crash { w; _ }
        | Plan.Blackhole { w; _ } ),
        (Net.No_route | Net.Ttl_exceeded | Net.Queue_full _) ) ->
      Some w
    | _ -> None
  in
  match window with Some w -> in_window w t | None -> false

let attribution plan (e : Flight.event) =
  let hits =
    match Net.drop_of_flight e with
    | None -> []
    | Some drop ->
      List.mapi (fun i spec -> (i, spec)) plan
      |> List.filter (fun (_, spec) ->
             episode_explains ~t:e.Flight.sim_t drop spec)
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
  (match Net.losses_by_label obs.Invariant.losses with
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

let run_on (sc : Scenario.t) (entry : Corpus.entry) =
  (* The scenario runs in the calling domain: single-threaded, so the
     event stream — and hence the narrative — is identical whatever
     domain count the CLI was invoked with. *)
  Flight.enable ();
  Flight.reset ();
  let obs =
    Fun.protect
      ~finally:(fun () -> Flight.disable ())
      (fun () -> sc.Scenario.run ~seed:entry.Corpus.seed ~plan:entry.Corpus.plan)
  in
  let events = Flight.events () in
  let overwritten = Flight.dropped () in
  Flight.reset ();
  let violations = Invariant.check obs in
  let narrative = render ~entry ~obs ~violations ~events ~overwritten in
  { entry; obs; violations; events; overwritten; narrative }

let run (entry : Corpus.entry) =
  Result.map
    (fun sc -> run_on sc entry)
    (Scenario.bind entry.Corpus.scenario entry.Corpus.plan)

(* ---------- the artifact ---------- *)

let schema = "tussle.flow-trace/2"

(* A string table under construction: every distinct string once, in
   first-seen order. *)
type table = {
  index : (string, int) Hashtbl.t;
  mutable strings : string list;  (* reversed *)
}

let table () = { index = Hashtbl.create 32; strings = [] }

let intern t s =
  match Hashtbl.find t.index s with
  | i -> i
  | exception Not_found ->
    let i = Hashtbl.length t.index in
    Hashtbl.add t.index s i;
    t.strings <- s :: t.strings;
    i

let strings_json t = Json.List (List.rev_map (fun s -> Json.Str s) t.strings)

(* [f i] for i = 0 .. n-1, built back to front so nothing is
   reversed. *)
let column n f =
  let rec go i acc = if i < 0 then acc else go (i - 1) (f i :: acc) in
  Json.List (go (n - 1) [])

let events_json events =
  let events = Array.of_list events in
  let n = Array.length events in
  let kinds = table () and details = table () in
  let kind = Array.make n 0 and detail = Array.make n 0 in
  Array.iteri
    (fun i (e : Flight.event) ->
      kind.(i) <- intern kinds e.Flight.kind;
      detail.(i) <- intern details e.Flight.detail)
    events;
  let ev i = Array.unsafe_get events i in
  ( strings_json kinds,
    strings_json details,
    Json.Obj
      [
        ("t", column n (fun i -> Json.Float (ev i).Flight.sim_t));
        ("flow", column n (fun i -> Json.int (ev i).Flight.flow));
        ("kind", column n (fun i -> Json.int kind.(i)));
        ("node", column n (fun i -> Json.int (ev i).Flight.node));
        ("peer", column n (fun i -> Json.int (ev i).Flight.peer));
        ("detail", column n (fun i -> Json.int detail.(i)));
        ("value", column n (fun i -> Json.Float (ev i).Flight.value));
      ] )

let to_json r =
  let kinds, details, events = events_json r.events in
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
             (Net.losses_by_label r.obs.Invariant.losses)) );
      ("events_recorded", Json.Int (List.length r.events));
      ("events_overwritten", Json.Int r.overwritten);
      ("kinds", kinds);
      ("details", details);
      ("events", events);
    ]

let ( let* ) = Json.( let* )

(* Every decoding error reads "flow-trace: missing or ill-typed PATH";
   the path is only formatted once a field has failed. *)
let ill_typed path = Error ("flow-trace: missing or ill-typed " ^ path)

let field what conv j =
  match Json.field what conv j with Ok v -> Ok v | Error _ -> ill_typed what

(* The size of string table [what]. *)
let string_table what j =
  let* entries = field what Json.to_list j in
  let rec each i = function
    | [] -> Ok i
    | Json.Str _ :: rest -> each (i + 1) rest
    | _ :: _ -> ill_typed (Printf.sprintf "%s[%d]" what i)
  in
  each 0 entries

(* The [Int] case comes first, so a valid element costs no [option].
   A float must be finite: an overflowing literal such as [1e309]
   parses to an infinity, which the printer would write as [null]. *)
let is_int = function Json.Int _ -> true | x -> Json.to_int x <> None
let is_float = function
  | Json.Float f -> Float.is_finite f
  | Json.Int _ -> true
  | _ -> false

(* Column [name] of [events]: [recorded] elements, each of which
   [check name i] finds fine ([None]) or explains ([Some msg]). *)
let check_column events ~recorded name check =
  match Json.member name events with
  | Some (Json.List xs) ->
    let rec walk i = function
      | [] ->
        if i = recorded then Ok ()
        else
          Error
            (Printf.sprintf
               "flow-trace: events_recorded %d but events.%s has %d elements"
               recorded name i)
      | x :: rest -> (
        match check name i x with None -> walk (i + 1) rest | Some msg -> Error msg)
    in
    walk 0 xs
  | _ -> ill_typed ("events." ^ name)

let bad_element name i =
  Some (Printf.sprintf "flow-trace: missing or ill-typed events.%s[%d]" name i)

let typed ok name i x = if ok x then None else bad_element name i

(* An index into a string table of [size] entries.  The first case is
   the in-range [Int], nearly every element, checked without the
   [option] that [Json.to_int] allocates; the second decides the rest. *)
let index ~table ~size name i x =
  match x with
  | Json.Int k when k >= 0 && k < size -> None
  | x -> (
    match Json.to_int x with
    | None -> bad_element name i
    | Some k when k >= 0 && k < size -> None
    | Some k ->
      Some
        (Printf.sprintf
           "flow-trace: events.%s[%d] = %d is not an index into %s (%d entries)"
           name i k table size))

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
    let* recorded = field "events_recorded" Json.to_int j in
    let* kinds = string_table "kinds" j in
    let* details = string_table "details" j in
    let* events =
      field "events" (function Json.Obj _ as o -> Some o | _ -> None) j
    in
    let column = check_column events ~recorded in
    let* () = column "t" (typed is_float) in
    let* () = column "flow" (typed is_int) in
    let* () = column "kind" (index ~table:"kinds" ~size:kinds) in
    let* () = column "node" (typed is_int) in
    let* () = column "peer" (typed is_int) in
    let* () = column "detail" (index ~table:"details" ~size:details) in
    column "value" (typed is_float)
