module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Flight = Tussle_obs.Flight
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Link = Tussle_netsim.Link
module Middlebox = Tussle_netsim.Middlebox

(* Every link object carrying traffic between u and v, either direction.
   [Topology.to_links] gives each direction its own [Link.t] while
   [Graph.add_undirected] can share one label both ways, so dedup by
   physical identity to apply each fault exactly once per object. *)
let links_between g u v =
  let acc = ref [] in
  Graph.iter_edges g (fun a b l ->
      if ((a = u && b = v) || (a = v && b = u)) && not (List.memq l !acc)
      then acc := l :: !acc);
  if !acc = [] then
    invalid_arg
      (Printf.sprintf "Inject.install: no link between %d and %d" u v);
  List.rev !acc

(* Only the links carrying u->v traffic: the directed subset of
   [links_between].  With per-direction link objects (Topology.to_links)
   this isolates one direction; a shared undirected label is returned
   once and — unavoidably — faults both directions. *)
let links_from g u v =
  let acc = ref [] in
  Graph.iter_edges g (fun a b l ->
      if a = u && b = v && not (List.memq l !acc) then acc := l :: !acc);
  if !acc = [] then
    invalid_arg
      (Printf.sprintf "Inject.install: no link from %d to %d" u v);
  List.rev !acc

let links_incident g node =
  let acc = ref [] in
  Graph.iter_edges g (fun a b l ->
      if (a = node || b = node) && not (List.memq l !acc) then
        acc := l :: !acc);
  if !acc = [] then
    invalid_arg
      (Printf.sprintf "Inject.install: node %d has no incident links" node);
  List.rev !acc

let schedule_window engine (w : Plan.window) ~on_open ~on_close =
  if w.Plan.from_s < Engine.now engine then
    invalid_arg "Inject.install: window opens in the engine's past";
  Engine.schedule engine w.Plan.from_s (fun _ -> on_open ());
  if Float.is_finite w.Plan.until_s then
    Engine.schedule engine w.Plan.until_s (fun _ -> on_close ())

(* Episode boundaries land in the flight recorder's control-plane
   stream (flow = [Flight.control_flow]) so a narrative can interleave
   "fault opened/closed" with the drops it caused.  [value] carries the
   episode's index in the plan, [detail] its [Plan.spec_string]. *)
let located spec =
  match Plan.target spec with `Link (u, v) -> (u, v) | `Node node -> (node, -1)

let install ~seed ~plan engine net =
  Plan.validate plan;
  let g = Net.links net in
  let rng = Rng.create seed in
  List.iteri
    (fun idx spec ->
      let node, peer = located spec in
      let record kind () =
        if Flight.enabled () then
          Flight.emit ~sim_t:(Engine.now engine) ~flow:Flight.control_flow
            ~node ~peer ~detail:(Plan.spec_string spec)
            ~value:(float_of_int idx) kind
      in
      let windowed w ~on_open ~on_close =
        schedule_window engine w
          ~on_open:(fun () ->
            record "fault-open" ();
            on_open ())
          ~on_close:(fun () ->
            record "fault-close" ();
            on_close ())
      in
      match (spec : Plan.spec) with
      | Plan.Link_down { u; v; w } ->
        let ls = links_between g u v in
        windowed w
          ~on_open:(fun () -> List.iter (fun l -> Link.set_up l false) ls)
          ~on_close:(fun () -> List.iter (fun l -> Link.set_up l true) ls)
      | Plan.Link_loss { u; v; w; prob } ->
        let ls = links_between g u v in
        let episode_rng = Rng.split rng in
        windowed w
          ~on_open:(fun () ->
            List.iter
              (fun l ->
                Link.set_fault_rng l episode_rng;
                Link.set_loss_prob l prob)
              ls)
          ~on_close:(fun () ->
            List.iter (fun l -> Link.set_loss_prob l 0.0) ls)
      | Plan.Link_corrupt { u; v; w; prob } ->
        let ls = links_between g u v in
        let episode_rng = Rng.split rng in
        windowed w
          ~on_open:(fun () ->
            List.iter
              (fun l ->
                Link.set_fault_rng l episode_rng;
                Link.set_corrupt_prob l prob)
              ls)
          ~on_close:(fun () ->
            List.iter (fun l -> Link.set_corrupt_prob l 0.0) ls)
      | Plan.Latency_spike { u; v; w; extra_s } ->
        let ls = links_between g u v in
        windowed w
          ~on_open:(fun () ->
            List.iter (fun l -> Link.set_extra_latency l extra_s) ls)
          ~on_close:(fun () ->
            List.iter (fun l -> Link.set_extra_latency l 0.0) ls)
      | Plan.Node_crash { node; w } ->
        let ls = links_incident g node in
        windowed w
          ~on_open:(fun () -> List.iter (fun l -> Link.set_up l false) ls)
          ~on_close:(fun () -> List.iter (fun l -> Link.set_up l true) ls)
      | Plan.Gray_loss { u; v; w; prob } ->
        let ls = links_between g u v in
        let episode_rng = Rng.split rng in
        windowed w
          ~on_open:(fun () ->
            List.iter
              (fun l ->
                Link.set_fault_rng l episode_rng;
                Link.set_gray_loss_prob l prob)
              ls)
          ~on_close:(fun () ->
            List.iter (fun l -> Link.set_gray_loss_prob l 0.0) ls)
      | Plan.Unidirectional_down { u; v; w } ->
        let ls = links_from g u v in
        windowed w
          ~on_open:(fun () -> List.iter (fun l -> Link.set_up l false) ls)
          ~on_close:(fun () -> List.iter (fun l -> Link.set_up l true) ls)
      | Plan.Link_flap { u; v; w; period_s; duty } ->
        (* Deterministic toggle schedule, compiled up front: down at
           [from + k*period], up [duty*period] later when that lands
           inside the window, and an unconditional restore at window
           close.  Each toggle is its own flight event, so a narrative
           can count the flaps a damped control plane absorbed. *)
        let ls = links_between g u v in
        if w.Plan.from_s < Engine.now engine then
          invalid_arg "Inject.install: window opens in the engine's past";
        let toggle up_state kind t =
          Engine.schedule engine t (fun _ ->
              record kind ();
              List.iter (fun l -> Link.set_up l up_state) ls)
        in
        let k = ref 0 in
        let continue = ref true in
        while !continue do
          let down = w.Plan.from_s +. (period_s *. float_of_int !k) in
          if down < w.Plan.until_s then begin
            toggle false "fault-open" down;
            let up = down +. (duty *. period_s) in
            if up < w.Plan.until_s then toggle true "fault-close" up;
            incr k
          end
          else continue := false
        done;
        toggle true "fault-close" w.Plan.until_s
      | Plan.Blackhole { node; w } ->
        if node < 0 || node >= Graph.node_count g then
          invalid_arg "Inject.install: blackhole node out of range";
        windowed w
          ~on_open:(fun () -> Net.set_blackhole net node true)
          ~on_close:(fun () -> Net.set_blackhole net node false)
      | Plan.Middlebox_break { node; w; covert } ->
        if node < 0 || node >= Graph.node_count g then
          invalid_arg "Inject.install: middlebox node out of range";
        let active = ref false in
        let mb =
          Middlebox.make ~reveals_presence:(not covert)
            ~name:Plan.broken_device_name (fun _ ->
              if !active then Middlebox.Drop else Middlebox.Forward)
        in
        Net.add_middlebox net node mb;
        windowed w
          ~on_open:(fun () -> active := true)
          ~on_close:(fun () -> active := false))
    plan
