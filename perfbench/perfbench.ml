(* The benchmark's entry point.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 [--plant K]

   Sets the workload up several times from the seed (setup_s is the
   median), then runs closed-loop ops, one at a time in this domain,
   over whole cycles of the inputs until S seconds have passed, with
   a host-speed reference timed between them (see host.ml).  With
   --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
   S/2 seconds untraced and S/2 traced, and reports the op latency
   percentiles of the untraced half, the per-layer metrics, the tracing
   overhead and each layer's self time, and writes the spans to
   .perfbench/.  The last line of stdout is one
   JSON object: {correct, attempted, failed, metrics}.  A summary
   with sample counts goes to stderr. *)

let workloads =
  [ Battery.workload; Chaos.workload; Explain.workload; Reconverge.workload ]

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("alloc_mb_per_op", "MB");
    ("top_heap_mb", "MB");
  ]

(* Every traced run reports every name; a layer a workload does not
   exercise reads 0 there.  Op latency percentiles come from the
   untraced half of a traced run: they mean something on explain, the
   interactive command, while on the other workloads they repeat
   ops_per_s or show which scenario sits at the cut, and each of them
   moves with the host's speed, so they carry no bound. *)
let layers =
  [ "bench"; "experiments"; "econ"; "trust"; "netsim"; "fault"; "chaos";
    "obs"; "routing" ]

let per_layer =
  [
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("econ.market.s", "s");
    ("econ.market.alloc_mb", "MB");
    ("trust.traceback.s", "s");
    ("trust.traceback.alloc_mb", "MB");
    ("netsim.transport.s", "s");
    ("experiments.other.s", "s");
    ("fault.plan_random.us", "us");
    ("chaos.ring-verified.sim_ms", "ms");
    ("chaos.ring-selfheal.sim_ms", "ms");
    ("chaos.line-transfer.sim_ms", "ms");
    ("chaos.grid-static.sim_ms", "ms");
    ("chaos.invariant_check.us", "us");
    ("netsim.net.packets_per_op", "count");
    ("netsim.net.drop_frac", "ratio");
    ("netsim.engine.high_water", "count");
    ("routing.selfheal.reconvergences_per_op", "count");
    ("chaos.explain_run.ms", "ms");
    ("obs.flight.events_per_op", "count");
    ("obs.flight.overwritten", "count");
    ("obs.json.emit_ms", "ms");
    ("obs.json.parse_ms", "ms");
    ("obs.json.validate_ms", "ms");
    ("obs.json.kb_per_op", "KiB");
    ("routing.selfheal_attach.ms", "ms");
    ("netsim.engine_run.ms", "ms");
    ("netsim.engine.events_per_op", "count");
    ("netsim.net.delivered_frac", "ratio");
    ("routing.ms_per_reconvergence", "ms");
    ("routing.linkstate_compute_live.ms", "ms");
    ("prelude.graph.dijkstra.us", "us");
    ("trace.ops_per_s", "1/s");
    ("trace.untraced_ops_per_s", "1/s");
    ("trace.overhead_ops_per_s", "1/s");
  ]
  @ List.map (fun l -> ("self." ^ l ^ ".ms_per_op", "ms")) layers

(* Set-up runs at least [setup_reps] times, and more, up to
   [setup_max_reps], until it has taken [setup_min_s] in all: a short
   set-up is timed often enough for its median to hold still. *)
let setup_reps = 3
let setup_max_reps = 15
let setup_min_s = 1.0
let now = Spans.now

let usage () =
  prerr_endline
    "usage: perfbench --workload battery|chaos|explain|reconverge --seed N \
     --seconds S --trace 0|1 [--plant K]";
  exit 2

type args = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  plant : int;
}

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest -> go ((flag, v) :: acc) rest
    | [ _ ] -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get flag = match List.assoc_opt flag kv with Some v -> v | None -> usage () in
  let int_of v = match int_of_string_opt v with Some n -> n | None -> usage () in
  List.iter
    (fun (f, _) ->
      if not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace"; "--plant" ])
      then usage ())
    kv;
  let name = get "--workload" in
  let workload =
    match List.find_opt (fun (w : Workload.t) -> w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int_of (get "--seconds") in
  let trace = int_of (get "--trace") in
  let plant =
    match List.assoc_opt "--plant" kv with Some v -> int_of v | None -> 0
  in
  if seconds < 1 || (trace <> 0 && trace <> 1) || plant < 0 then usage ();
  {
    workload;
    seed = int_of (get "--seed");
    seconds = float_of_int seconds;
    trace = trace = 1;
    plant;
  }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between closest ranks. *)
let percentile sorted p =
  let n = Array.length sorted in
  let r = p /. 100. *. float_of_int (n - 1) in
  let lo = truncate r in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((r -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

type phase = {
  ops : int;
  failed : int;
  elapsed : float;
  rates : float list;  (* ops per second of each window *)
  scaled : float list;  (* the same, scaled to the nominal host *)
  latencies : float array;  (* seconds, in op order *)
  alloc_words : float;  (* per op, over the first cycle *)
  refs : float list;  (* reference kernel times, seconds *)
}

(* Throughput is taken per window of at least this many seconds (or
   one op, if longer), and reported as the median over the windows, so
   that a short stall on the host moves one window, not the result. *)
let window_s = 0.4

(* Share of the time spent on reference samples; see [timed]. *)
let ref_share = 0.05

let failures_shown = ref 0

(* Reference samples after a stretch of [span.(0)] seconds, into
   [refs] from [!n] on: at least one, and until they have taken
   [ref_share] of the stretch.  [span.(1)] gets their mean.  The times
   go through [span] because a float passed to or returned from a
   function would be boxed, and the timed loop must not allocate. *)
let sample_after host refs n span =
  let first = !n in
  span.(1) <- 0.;
  while !n < Array.length refs && (!n = first || span.(1) < ref_share *. span.(0)) do
    Host.sample host refs !n;
    span.(1) <- span.(1) +. refs.(!n);
    incr n
  done;
  span.(1) <- span.(1) /. float_of_int (max 1 (!n - first))

(* Closed loop: op [k] starts when op [k-1] has returned.  Runs whole
   cycles, so the op mix is the same whatever the host's speed.  Words
   allocated are counted over the first cycle, which every run
   completes from the same state; the pause to count them is left out
   of the elapsed time.  Until then the loop's own bookkeeping must not
   allocate per window (the number of windows depends on the host's
   speed), hence the preallocated arrays, the times kept unboxed in
   [start] (a float passed to a function would be boxed) and no clock
   read per window (the clock returns a boxed float): the run's start,
   the current window's (-1 until the next op starts it), the end of
   the last op.

   Before the first window and after each one the reference kernel
   runs ([sample_after]); [wref.(w)] is the mean of the samples taken
   just before window [w].  A window's rate is scaled by the mean of the
   kernel times on both sides of it, over [Host.nominal host], so that
   the host's speed is read when the window ran.  The samples count
   towards [seconds] but not towards any window. *)
let timed ~host ~seconds ~cycle run =
  let lat = ref (Array.make 4096 0.) in
  let ops = ref 0 and failed = ref 0 and alloc_words = ref 0. in
  let cap = (4 * truncate (seconds /. window_s)) + 1024 in
  let rates = Array.make cap 0. and wref = Array.make (cap + 1) 0. in
  let windows = ref 0 and window_ops = ref 0 in
  let refs = Array.make 8192 0. and nrefs = ref 0 in
  let start = Array.make 3 0. and span = Array.make 2 window_s in
  (* Closes the window that ends at [start.(2)]. *)
  let close_window () =
    span.(0) <- start.(2) -. start.(1);
    rates.(!windows) <- float_of_int !window_ops /. span.(0);
    incr windows;
    sample_after host refs nrefs span;
    wref.(!windows) <- span.(1);
    start.(1) <- -1.;
    window_ops := 0
  in
  sample_after host refs nrefs span;
  wref.(0) <- span.(1);
  let w0 = Workload.words () in
  start.(0) <- now ();
  start.(1) <- start.(0);
  while !ops = 0 || !ops mod cycle <> 0 || now () -. start.(0) < seconds do
    let k = !ops in
    let a = now () in
    if start.(1) < 0. then start.(1) <- a;
    let r = try run ~op:k (k mod cycle) with e -> Error (Printexc.to_string e) in
    let b = now () in
    start.(2) <- b;
    (match r with
    | Ok () -> ()
    | Error msg ->
      incr failed;
      if !failures_shown < 5 then begin
        incr failures_shown;
        Printf.eprintf "op %d failed: %s\n%!" k msg
      end);
    if k = Array.length !lat then begin
      let bigger = Array.make (2 * k) 0. in
      Array.blit !lat 0 bigger 0 k;
      lat := bigger
    end;
    !lat.(k) <- b -. a;
    incr ops;
    incr window_ops;
    if b -. start.(1) >= window_s && !windows < cap then close_window ();
    if !ops = cycle then begin
      let p = now () in
      alloc_words := Workload.words () -. w0;
      let pause = now () -. p in
      start.(0) <- start.(0) +. pause;
      if start.(1) >= 0. then start.(1) <- start.(1) +. pause
    end
  done;
  if !windows = 0 then close_window ();
  let n = !windows in
  {
    ops = !ops;
    failed = !failed;
    elapsed = now () -. start.(0);
    rates = Array.to_list (Array.sub rates 0 n);
    scaled =
      List.init n (fun w ->
          rates.(w) *. (wref.(w) +. wref.(w + 1)) /. (2. *. Host.nominal host));
    latencies = Array.sub !lat 0 !ops;
    alloc_words = !alloc_words /. float_of_int cycle;
    refs = Array.to_list (Array.sub refs 0 !nrefs);
  }

(* The host's speed over a run against the nominal host's: the
   median reference kernel time over its nominal time. *)
let factor host phases =
  median (List.concat_map (fun p -> p.refs) phases) /. Host.nominal host

let rate p = median p.scaled

let json_result ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed (String.concat ", " m)

let report ~attempted ~failed table values =
  let metrics =
    List.map
      (fun (name, unit_) ->
        (name, unit_, Option.value ~default:0. (List.assoc_opt name values)))
      table
  in
  List.iter (fun (n, u, v) -> Printf.eprintf "  %-40s %14.6g %s\n" n v u) metrics;
  print_endline (json_result ~attempted ~failed metrics)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--reference" then Host.serve ();
  let a = parse Sys.argv in
  let w = a.workload in
  let host = Host.start w.reference in
  (* Each set-up is scaled, as a window is, by the mean of the
     reference samples on both sides of it. *)
  let inst = ref None and raw = ref [] and scaled = ref [] in
  let refs = Array.make 4096 0. and n = ref 0 and span = Array.make 2 window_s in
  sample_after host refs n span;
  while
    let n = List.length !raw in
    n < setup_reps
    || (n < setup_max_reps && List.fold_left ( +. ) 0. !raw < setup_min_s)
  do
    let t = now () in
    inst := Some (w.setup ~seed:a.seed ~plant:a.plant);
    let d = now () -. t in
    let before = span.(1) in
    span.(0) <- d;
    sample_after host refs n span;
    raw := d :: !raw;
    scaled := (d *. 2. *. Host.nominal host /. (before +. span.(1))) :: !scaled
  done;
  let inst = Option.get !inst in
  let setup_s = median !scaled in
  let cycle = inst.cycle in
  Printf.eprintf "perfbench %s seed=%d cycle=%d setup_s=%.4f, unscaled %.4f (median of %d)\n%!"
    w.name a.seed cycle setup_s (median !raw) (List.length !raw);
  if not a.trace then begin
    let p = timed ~host ~seconds:a.seconds ~cycle (fun ~op:_ i -> inst.op i) in
    Host.stop host;
    let s = Gc.quick_stat () in
    let f = factor host [ p ] in
    Printf.eprintf
      "%d ops in %.3f s; %d rate windows; unscaled %.6g ops/s; \
       %d reference samples, host factor %.4f\n"
      p.ops p.elapsed (List.length p.rates) (median p.rates)
      (List.length p.refs) f;
    report ~attempted:p.ops ~failed:p.failed end_to_end
      [
        ("setup_s", setup_s);
        ("ops_per_s", rate p);
        ("alloc_mb_per_op", Workload.word_mb *. p.alloc_words);
        ("top_heap_mb", Workload.word_mb *. float_of_int s.top_heap_words);
      ]
  end
  else begin
    let half = a.seconds /. 2. in
    let plain = timed ~host ~seconds:half ~cycle (fun ~op:_ i -> inst.op i) in
    let sp = Spans.create () in
    let traced =
      timed ~host ~seconds:half ~cycle (fun ~op i ->
          Spans.span sp ~op "bench.op" (fun () -> inst.traced_op sp ~op i))
    in
    Host.stop host;
    let f = factor host [ plain; traced ] in
    let values = inst.per_layer sp ~ops:traced.ops in
    let self =
      List.map
        (fun (l, s) ->
          ("self." ^ l ^ ".ms_per_op", Workload.ms (Workload.per s traced.ops)))
        (Spans.self_by_layer sp)
    in
    List.iter
      (fun (n, _) ->
        if not (List.mem_assoc n per_layer) then failwith ("unlisted metric " ^ n))
      (values @ self);
    (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".perfbench/spans-%s-seed%d.jsonl" w.name a.seed in
    Spans.write sp path;
    Printf.eprintf
      "%d untraced ops (the latency samples), %d traced ops; spans in %s; \
       %d reference samples, host factor %.4f\n"
      plain.ops traced.ops path
      (List.length plain.refs + List.length traced.refs) f;
    (* Times are scaled to the nominal host, as the rates are. *)
    let scale (n, v) =
      match List.assoc_opt n per_layer with
      | Some ("s" | "ms" | "us") -> (n, v /. f)
      | _ -> (n, v)
    in
    let sorted = Array.copy plain.latencies in
    Array.sort compare sorted;
    report ~attempted:(plain.ops + traced.ops) ~failed:(plain.failed + traced.failed)
      per_layer
      (List.map scale
         (values @ self
         @ [
             ("op_ms_p50", Workload.ms (percentile sorted 50.));
             ("op_ms_p90", Workload.ms (percentile sorted 90.));
           ])
      @ [
          ("trace.ops_per_s", rate traced);
          ("trace.untraced_ops_per_s", rate plain);
          ("trace.overhead_ops_per_s", rate traced -. rate plain);
        ])
  end
