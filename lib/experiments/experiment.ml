module Metrics = Tussle_obs.Metrics
module Trace = Tussle_obs.Trace
module Clock = Tussle_obs.Clock

type verdict = {
  claim : string;
  test : string;
  result : Tussle_prelude.Stats.Test.result;
}

type sweep = {
  probe : seed:int -> (string * float) list;
  judge : (string -> float array) -> verdict list;
}

type t = {
  id : string;
  title : string;
  paper_claim : string;
  run : unit -> string * bool;
  sweep : sweep option;
}

type status = Held | Violated | Failed of string

type outcome = {
  exp_id : string;
  exp_title : string;
  output : string;
  status : status;
  wall_s : float;
  events_executed : int;
  allocated_bytes : float;
}

let header t =
  Printf.sprintf "## %s — %s\n\nPaper claim: %s\n\n" t.id t.title t.paper_claim

let footer ok =
  Printf.sprintf "\nshape check: %s\n"
    (if ok then "HOLDS (matches the paper's qualitative claim)"
     else "DOES NOT HOLD")

let held o = o.status = Held

(* Same handle Engine accumulates into (interned by name): the
   local-count delta around a synchronous run attributes engine events
   to this experiment even while other domains run concurrently. *)
let m_engine_events = Metrics.counter "engine.events_executed"
let m_experiments = Metrics.counter "experiments.run"

let run_sync t =
  Trace.with_span ~cat:"experiment" ~args:[ ("id", t.id) ] "experiment"
  @@ fun () ->
  Metrics.incr m_experiments;
  let events0 = Metrics.local_count m_engine_events in
  (* Start from an empty minor heap: where the window's minor
     collections fall then depends on this run alone, not on what the
     process allocated before it, and OCaml 5.1's per-collection
     minor-word count repeats exactly. *)
  Gc.minor ();
  let alloc0 = Gc.allocated_bytes () in
  let wall0 = Clock.now_s () in
  let finish status output =
    {
      exp_id = t.id;
      exp_title = t.title;
      output;
      status;
      wall_s = Clock.now_s () -. wall0;
      events_executed = Metrics.local_count m_engine_events - events0;
      allocated_bytes = Gc.allocated_bytes () -. alloc0;
    }
  in
  match t.run () with
  | body, ok ->
    finish (if ok then Held else Violated) (header t ^ body ^ footer ok)
  | exception e ->
    let msg = Printexc.to_string e in
    let bt = Printexc.get_backtrace () in
    let body =
      Printf.sprintf "FAILED (uncaught: %s)\n%s" msg
        (if bt = "" then "(no backtrace: Printexc.record_backtrace off)\n"
         else bt)
    in
    finish (Failed msg) (header t ^ body)

(* ---------- watchdog ---------- *)

(* Coarse poll: the watchdog guards against experiments hung for
   seconds, so millisecond resolution is plenty and the waiting domain
   stays off the CPU the experiment is using. *)
let poll_interval_s = 0.002

let timeout_outcome t ~elapsed ~limit =
  let msg = Printf.sprintf "timeout: exceeded the %gs watchdog" limit in
  let body =
    Printf.sprintf
      "FAILED (%s)\n\
       The run was abandoned after %.3fs wall clock; its domain may\n\
       still be executing and is reclaimed when the process exits.\n"
      msg elapsed
  in
  {
    exp_id = t.id;
    exp_title = t.title;
    output = header t ^ body;
    status = Failed msg;
    wall_s = elapsed;
    (* the runaway domain owns the events/allocation counters; only the
       wall clock is observable from outside *)
    events_executed = 0;
    allocated_bytes = 0.0;
  }

let run_watched ~timeout_s t =
  if not (timeout_s > 0.0 && Float.is_finite timeout_s) then
    invalid_arg "Experiment.run: timeout_s must be positive and finite";
  let slot = Atomic.make None in
  let wall0 = Clock.now_s () in
  let child = Domain.spawn (fun () -> Atomic.set slot (Some (run_sync t))) in
  let deadline = wall0 +. timeout_s in
  let rec wait () =
    match Atomic.get slot with
    | Some o ->
      Domain.join child;
      o
    | None ->
      if Clock.now_s () >= deadline then begin
        (* last look, so a photo-finish completion is not discarded *)
        match Atomic.get slot with
        | Some o ->
          Domain.join child;
          o
        | None ->
          timeout_outcome t ~elapsed:(Clock.now_s () -. wall0) ~limit:timeout_s
      end
      else begin
        Unix.sleepf poll_interval_s;
        wait ()
      end
  in
  wait ()

let run ?timeout_s t =
  match timeout_s with
  | None -> run_sync t
  | Some limit -> run_watched ~timeout_s:limit t
