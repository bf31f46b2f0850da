module Metrics = Tussle_obs.Metrics
module Trace = Tussle_obs.Trace
module Clock = Tussle_obs.Clock

(* No per-event record: the queue payload is the bare action closure,
   so a schedule allocates nothing beyond the closure the caller
   already built. *)
type t = {
  mutable clock : float;
  queue : (t -> unit) Tussle_prelude.Pqueue.t;
  mutable executed : int;
  mutable queue_hw : int;
}

let create () =
  { clock = 0.0; queue = Tussle_prelude.Pqueue.create (); executed = 0; queue_hw = 0 }

let now t = t.clock

let schedule t at action =
  if not (Float.is_finite at) then invalid_arg "Engine.schedule: non-finite time";
  if at < t.clock then invalid_arg "Engine.schedule: time in the past";
  Tussle_prelude.Pqueue.push t.queue at action;
  let depth = Tussle_prelude.Pqueue.length t.queue in
  if depth > t.queue_hw then t.queue_hw <- depth

let schedule_after t delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t (t.clock +. delay) action

let pending t = Tussle_prelude.Pqueue.length t.queue

(* Telemetry handles; created once at module initialization so the
   per-run emission path is just writes to this domain's cells. *)
let m_runs = Metrics.counter "engine.runs"
let m_events = Metrics.counter "engine.events_executed"
let m_queue_hw = Metrics.gauge "engine.queue_depth_high_water"
let m_run_wall = Metrics.histogram "engine.run_wall_s"
let m_sim_per_wall = Metrics.histogram "engine.sim_per_wall"

let run_loop ?until t =
  let horizon = Option.value ~default:infinity until in
  let q = t.queue and running = ref true in
  (* Pops via min_key/pop_min: no option or tuple cell per event, and
     the one boxed key [min_key] returns becomes the clock. *)
  while !running do
    if Tussle_prelude.Pqueue.is_empty q then running := false
    else begin
      let at = Tussle_prelude.Pqueue.min_key q in
      if not (at <= horizon) then running := false
      else begin
        let action = Tussle_prelude.Pqueue.pop_min q in
        t.clock <- at;
        t.executed <- t.executed + 1;
        action t
      end
    end
  done;
  (* Advance to the horizon whether the queue drained before it or the
     next event lies beyond it, so [now] is consistent after [run
     ~until] (never moving the clock backwards). *)
  if Float.is_finite horizon && horizon > t.clock then t.clock <- horizon

let run ?until t =
  (* One flag check per run, nothing per event: the disabled path is
     the pre-telemetry loop verbatim. *)
  let metrics_on = Metrics.enabled () in
  let tracing_on = Trace.enabled () in
  if not (metrics_on || tracing_on) then run_loop ?until t
  else begin
    let sp = Trace.begin_span ~cat:"engine" "engine.run" in
    let wall0 = Clock.now_s () in
    let executed0 = t.executed in
    let sim0 = t.clock in
    Fun.protect
      ~finally:(fun () ->
        Trace.end_span sp;
        if metrics_on then begin
          let wall = Clock.now_s () -. wall0 in
          Metrics.incr m_runs;
          Metrics.add m_events (t.executed - executed0);
          Metrics.set m_queue_hw (float_of_int t.queue_hw);
          Metrics.observe m_run_wall wall;
          if wall > 0.0 then
            Metrics.observe m_sim_per_wall ((t.clock -. sim0) /. wall)
        end)
      (fun () -> run_loop ?until t)
  end

let events_executed t = t.executed

let queue_depth_high_water t = t.queue_hw
