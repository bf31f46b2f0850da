module Graph = Tussle_prelude.Graph
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

(* Fold over the distinct physical link objects (an undirected label
   shared both ways must be counted once — same dedup Inject uses). *)
let fold_links links ~init ~f =
  let seen = ref [] in
  Graph.fold_edges links ~init ~f:(fun acc _ _ l ->
      if List.memq l !seen then acc
      else begin
        seen := l :: !seen;
        f acc l
      end)

let observe ?(transfers = []) ?(reconvergences = 0) ?covert_budget
    ?fault_transitions ~clock_start engine net =
  let links = Net.links net in
  {
    injected = Net.injected_count net;
    delivered = Net.delivered_count net;
    dropped = Net.lost_count net;
    in_flight = Net.in_flight net;
    engine_pending = Engine.pending engine;
    clock_start;
    clock_end = Engine.now engine;
    losses = Net.losses net;
    link_fault_drops =
      fold_links links ~init:0 ~f:(fun acc l -> acc + Link.fault_drops l);
    link_corrupted =
      fold_links links ~init:0 ~f:(fun acc l -> acc + Link.corrupted_count l);
    link_gray_drops =
      fold_links links ~init:0 ~f:(fun acc l -> acc + Link.gray_drops l);
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

(* ---------- sweep-report invariants ---------- *)

module Sweep_report = Tussle_obs.Sweep_report
module Stats = Tussle_prelude.Stats

(* Fold every metric of every experiment, collecting the first
   violation detail each metric produces. *)
let each_metric report f =
  List.concat_map
    (fun (e : Sweep_report.exp) ->
      List.filter_map (fun m -> f e m) e.Sweep_report.metrics)
    report.Sweep_report.experiments

let first_some = function [] -> None | d :: _ -> Some d

let report_all : (string * (Sweep_report.t -> string option)) list =
  [
    ( "sweep-samples-match-runs",
      fun r ->
        first_some
          (each_metric r (fun e m ->
               let n = Array.length m.Sweep_report.samples in
               if n <> e.Sweep_report.runs then
                 Some
                   (Printf.sprintf "%s/%s: %d samples for %d runs"
                      e.Sweep_report.id m.Sweep_report.name n
                      e.Sweep_report.runs)
               else if e.Sweep_report.runs <> r.Sweep_report.runs then
                 Some
                   (Printf.sprintf "%s: experiment runs %d <> sweep runs %d"
                      e.Sweep_report.id e.Sweep_report.runs
                      r.Sweep_report.runs)
               else None)) );
    ( "sweep-ci-brackets-mean",
      fun r ->
        first_some
          (each_metric r (fun e m ->
               if
                 m.Sweep_report.ci_lo <= m.Sweep_report.mean
                 && m.Sweep_report.mean <= m.Sweep_report.ci_hi
               then None
               else
                 Some
                   (Printf.sprintf "%s/%s: CI [%g, %g] does not bracket mean %g"
                      e.Sweep_report.id m.Sweep_report.name
                      m.Sweep_report.ci_lo m.Sweep_report.ci_hi
                      m.Sweep_report.mean))) );
    ( "sweep-mean-matches-samples",
      fun r ->
        first_some
          (each_metric r (fun e m ->
               if Array.length m.Sweep_report.samples = 0 then None
               else
                 let actual = Stats.mean m.Sweep_report.samples in
                 let scale = Float.max 1.0 (Float.abs actual) in
                 if Float.abs (actual -. m.Sweep_report.mean) <= 1e-9 *. scale
                 then None
                 else
                   Some
                     (Printf.sprintf
                        "%s/%s: recorded mean %g but samples average to %g"
                        e.Sweep_report.id m.Sweep_report.name
                        m.Sweep_report.mean actual))) );
    ( "sweep-stats-well-formed",
      fun r ->
        first_some
          (each_metric r (fun e m ->
               let bad name v =
                 Some
                   (Printf.sprintf "%s/%s: %s is %g" e.Sweep_report.id
                      m.Sweep_report.name name v)
               in
               if not (Float.is_finite m.Sweep_report.mean) then
                 bad "mean" m.Sweep_report.mean
               else if
                 (not (Float.is_finite m.Sweep_report.stddev))
                 || m.Sweep_report.stddev < 0.0
               then bad "stddev" m.Sweep_report.stddev
               else if
                 Array.exists
                   (fun x -> not (Float.is_finite x))
                   m.Sweep_report.samples
               then
                 Some
                   (Printf.sprintf "%s/%s: non-finite sample"
                      e.Sweep_report.id m.Sweep_report.name)
               else None)) );
  ]

let report_names = List.map fst report_all

let check_report r =
  List.filter_map
    (fun (invariant, f) ->
      Option.map (fun detail -> { invariant; detail }) (f r))
    report_all

(* ---------- search-report invariants ---------- *)

module Search_report = Tussle_obs.Search_report
module Plan = Tussle_fault.Plan

(* One finding's corpus bookkeeping: the file name's hash component
   must match the minimal plan's text, and when the file is on disk it
   must load back to exactly that reproducer. *)
let finding_corpus_violation (f : Search_report.finding) =
  if f.Search_report.corpus_file = "" then None
  else
    let scenario = f.Search_report.scenario in
    let name = Filename.basename f.Search_report.corpus_file in
    match Filename.chop_suffix_opt ~suffix:".plan" name with
    | None ->
      Some (Printf.sprintf "%s: corpus file %S is not a .plan" scenario name)
    | Some stem -> (
      match String.rindex_opt stem '-' with
      | None ->
        Some
          (Printf.sprintf "%s: corpus file %S has no hash suffix" scenario name)
      | Some i -> (
        let hex = String.sub stem (i + 1) (String.length stem - i - 1) in
        match Plan.of_string f.Search_report.minimal_plan with
        | Error e ->
          Some
            (Printf.sprintf "%s: minimal plan does not parse: %s" scenario e)
        | Ok plan -> (
          let canonical = Plan.to_string plan in
          let expect =
            Printf.sprintf "%08x" (Hashtbl.hash canonical land 0xffffffff)
          in
          let prefix = scenario ^ "-" in
          let has_prefix =
            String.length stem >= String.length prefix
            && String.sub stem 0 (String.length prefix) = prefix
          in
          if hex <> expect then
            Some
              (Printf.sprintf
                 "%s: corpus file hash %s but minimal plan hashes to %s"
                 scenario hex expect)
          else if not has_prefix then
            Some
              (Printf.sprintf "%s: corpus file %S not named for its scenario"
                 scenario name)
          else if not (Sys.file_exists f.Search_report.corpus_file) then None
          else
            match Corpus.load f.Search_report.corpus_file with
            | Error e ->
              Some
                (Printf.sprintf "%s: corpus file %S unreadable: %s" scenario
                   name e)
            | Ok e' ->
              if e'.Corpus.scenario <> scenario then
                Some
                  (Printf.sprintf
                     "%s: corpus file %S names scenario %S on disk" scenario
                     name e'.Corpus.scenario)
              else if Plan.to_string e'.Corpus.plan <> canonical then
                Some
                  (Printf.sprintf
                     "%s: corpus file %S holds a different plan on disk"
                     scenario name)
              else None)))

let search_report_all : (string * (Search_report.t -> string option)) list =
  [
    ( "search-budget-accounting",
      fun r ->
        let open Search_report in
        if r.runs < 0 || r.runs > r.budget then
          Some (Printf.sprintf "%d runs for budget %d" r.runs r.budget)
        else if r.backend = "mutate" && r.runs <> r.budget then
          Some
            (Printf.sprintf
               "mutate backend must spend its whole budget: %d of %d" r.runs
               r.budget)
        else if r.backend = "exhaust" && r.runs <> min r.budget r.space then
          Some
            (Printf.sprintf
               "exhaust backend ran %d plans; expected min(budget %d, space %d)"
               r.runs r.budget r.space)
        else if
          r.certified
          && (r.backend <> "exhaust" || r.runs <> r.space || r.findings <> [])
        then Some "certification requires an exhausted box with no findings"
        else None );
    ( "search-coverage-monotone",
      fun r ->
        let open Search_report in
        let rec walk prev = function
          | [] -> None
          | n :: rest ->
            if n < prev then
              Some
                (Printf.sprintf "coverage frontier shrank: %d -> %d" prev n)
            else walk n rest
        in
        match walk 0 r.frontier with
        | Some d -> Some d
        | None ->
          let final = frontier_size r in
          if final > r.runs then
            Some
              (Printf.sprintf "%d distinct signatures from only %d runs" final
                 r.runs)
          else if r.runs > 0 && final = 0 then
            Some (Printf.sprintf "%d runs grew no coverage at all" r.runs)
          else None );
    ( "search-corpus-hashes",
      fun r ->
        first_some
          (List.filter_map finding_corpus_violation r.Search_report.findings)
    );
    ( "search-corpus-additions-counted",
      fun r ->
        let open Search_report in
        let persisted =
          List.length
            (List.filter (fun f -> f.corpus_file <> "") r.findings)
        in
        if r.corpus_added < 0 || r.corpus_added > persisted then
          Some
            (Printf.sprintf
               "corpus_added=%d but %d findings carry a corpus file"
               r.corpus_added persisted)
        else None );
  ]

let search_report_names = List.map fst search_report_all

let check_search_report r =
  List.filter_map
    (fun (invariant, f) ->
      Option.map (fun detail -> { invariant; detail }) (f r))
    search_report_all
