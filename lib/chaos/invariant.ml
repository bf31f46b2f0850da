module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Link = Tussle_netsim.Link

type transfer_state = Completed | Abandoned | Active

type obs = {
  injected : int;
  delivered : int;
  dropped : int;
  in_flight : int;
  engine_pending : int;
  clock_start : float;
  clock_end : float;
  losses : (Net.drop_reason * int) list;
  link_fault_drops : int;
  link_corrupted : int;
  link_gray_drops : int;
  transfers : transfer_state list;
  engine_high_water : int;
  reconvergences : int;
  covert_budget : int option;
  fault_transitions : int option;
}

let observe ?(transfers = []) ?(reconvergences = 0) ?covert_budget
    ?fault_transitions ~clock_start engine net =
  (* one pass over the distinct link objects: an undirected label
     shared both ways is counted once *)
  let fault_drops = ref 0 and corrupted = ref 0 and gray_drops = ref 0 in
  Link.fold_distinct (Net.links net) ~init:() ~f:(fun () l ->
      fault_drops := !fault_drops + Link.fault_drops l;
      corrupted := !corrupted + Link.corrupted_count l;
      gray_drops := !gray_drops + Link.gray_drops l);
  {
    injected = Net.injected_count net;
    delivered = Net.delivered_count net;
    dropped = Net.lost_count net;
    in_flight = Net.in_flight net;
    engine_pending = Engine.pending engine;
    clock_start;
    clock_end = Engine.now engine;
    losses = Net.losses net;
    link_fault_drops = !fault_drops;
    link_corrupted = !corrupted;
    link_gray_drops = !gray_drops;
    transfers;
    engine_high_water = Engine.queue_depth_high_water engine;
    reconvergences;
    covert_budget;
    fault_transitions;
  }

type violation = { invariant : string; detail : string }

let count o matches = Net.count_losses matches o.losses

(* The registry.  Each invariant returns [Some detail] on violation.
   This list is the intended home for future correctness checks: a new
   simulation-wide property becomes one entry here and every chaos
   sweep, corpus replay, and planted-violation test starts enforcing
   it. *)
let all : (string * (obs -> string option)) list =
  [
    ( "packet-conservation",
      fun o ->
        if o.injected = o.delivered + o.dropped + o.in_flight then None
        else
          Some
            (Printf.sprintf
               "injected %d <> delivered %d + dropped %d + in-flight %d"
               o.injected o.delivered o.dropped o.in_flight) );
    ( "engine-drained",
      fun o ->
        if o.engine_pending = 0 then None
        else Some (Printf.sprintf "%d events still queued" o.engine_pending) );
    ( "monotone-clock",
      fun o ->
        if o.clock_end >= o.clock_start then None
        else
          Some
            (Printf.sprintf "clock ran backwards: %g -> %g" o.clock_start
               o.clock_end) );
    ( "drop-accounting",
      fun o ->
        let by_reason = count o (fun _ -> true) in
        let attributed =
          count o (function
            | Net.Link_down _ | Net.Fault_loss _ -> true
            | _ -> false)
        in
        let corrupted =
          count o (function Net.Corrupted _ -> true | _ -> false)
        in
        if by_reason <> o.dropped then
          Some
            (Printf.sprintf "per-reason drops %d <> lost packets %d" by_reason
               o.dropped)
        else if o.link_fault_drops <> attributed then
          Some
            (Printf.sprintf
               "links counted %d fault drops, net attributed %d"
               o.link_fault_drops attributed)
        else if o.link_corrupted <> corrupted then
          Some
            (Printf.sprintf "links corrupted %d packets, net attributed %d"
               o.link_corrupted corrupted)
        else None );
    ( "no-hung-transfer",
      fun o ->
        match List.filter (fun s -> s = Active) o.transfers with
        | [] -> None
        | stuck ->
          Some
            (Printf.sprintf "%d transfer(s) neither completed nor abandoned"
               (List.length stuck)) );
    (* Covert drops must never be silently lost: every gray drop the
       links counted has to surface as an attributed [Gray_loss]
       outcome, and — when the scenario stakes a claim — the total
       covert damage (gray + Byzantine discard) must stay within its
       declared budget.  A hello-only control plane that routes a flow
       into a gray link for a whole run busts any finite budget; a
       data-plane-verified one detects and reroutes. *)
    ( "no-silent-blackhole",
      fun o ->
        let gray = count o (function Net.Gray_loss _ -> true | _ -> false) in
        if o.link_gray_drops <> gray then
          Some
            (Printf.sprintf "links counted %d gray drops, net attributed %d"
               o.link_gray_drops gray)
        else
          match o.covert_budget with
          | None -> None
          | Some budget ->
            let blackholed =
              count o (function Net.Blackholed _ -> true | _ -> false)
            in
            if gray + blackholed > budget then
              Some
                (Printf.sprintf
                   "%d covert drops (gray %d + blackholed %d) exceed the \
                    declared budget %d"
                   (gray + blackholed) gray blackholed budget)
            else None );
    (* Static shortest-path tables are loop-free by construction, so a
       ttl-exceeded drop without a single reconvergence means the
       forwarding plane itself looped.  Transient micro-loops during
       reconvergence are expected and exempt. *)
    ( "no-forwarding-loop",
      fun o ->
        let ttl = count o (( = ) Net.Ttl_exceeded) in
        if ttl > 0 && o.reconvergences = 0 then
          Some
            (Printf.sprintf
               "%d ttl-exceeded drop(s) with zero reconvergences: static \
                tables forwarded a loop"
               ttl)
        else None );
    (* Reconvergence churn must stay proportional to the churn the
       plan actually drove: each control-observable fault transition
       may trigger a detection and a restoration (and a damped control
       plane far fewer).  The generous 4t+4 bound still catches a
       control plane recomputing in a storm of its own making. *)
    ( "damping-bounds-reconvergence",
      fun o ->
        match o.fault_transitions with
        | None -> None
        | Some t ->
          let bound = (4 * t) + 4 in
          if o.reconvergences > bound then
            Some
              (Printf.sprintf
                 "%d reconvergences for %d fault transition(s) (bound %d)"
                 o.reconvergences t bound)
          else None );
  ]

let names = List.map fst all

let check o =
  List.filter_map
    (fun (invariant, f) ->
      Option.map (fun detail -> { invariant; detail }) (f o))
    all

let violation_string v = Printf.sprintf "%s: %s" v.invariant v.detail
