module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Flight = Tussle_obs.Flight
module Engine = Tussle_netsim.Engine
module Net = Tussle_netsim.Net
module Link = Tussle_netsim.Link
module Middlebox = Tussle_netsim.Middlebox

(* Every link object the selector names: those carrying traffic
   between u and v either way, only u->v, or incident to a node.
   [Topology.to_links] gives each direction its own [Link.t] while
   [Graph.add_undirected] can share one label both ways, so dedup by
   physical identity to apply each fault exactly once per object.  A
   shared label is found once and — unavoidably — a [`From] fault on it
   hits both directions. *)
let links g sel =
  let keep =
    match sel with
    | `Between (u, v) -> fun a b -> (a = u && b = v) || (a = v && b = u)
    | `From (u, v) -> fun a b -> a = u && b = v
    | `Incident node -> fun a b -> a = node || b = node
  in
  let acc = ref [] in
  Graph.iter_edges g (fun a b l ->
      if keep a b && not (List.memq l !acc) then acc := l :: !acc);
  if !acc = [] then
    invalid_arg
      (match sel with
      | `Between (u, v) ->
        Printf.sprintf "Inject.install: no link between %d and %d" u v
      | `From (u, v) -> Printf.sprintf "Inject.install: no link from %d to %d" u v
      | `Incident node ->
        Printf.sprintf "Inject.install: node %d has no incident links" node);
  List.rev !acc

(* Episode boundaries land in the flight recorder's control-plane
   stream (flow = [Flight.control_flow]) so a narrative can interleave
   "fault opened/closed" with the drops it caused.  [value] carries the
   episode's index in the plan, [detail] its [Plan.spec_string]. *)
let located spec =
  match Plan.target spec with `Link (u, v) -> (u, v) | `Node node -> (node, -1)

let check_node g node what =
  if node < 0 || node >= Graph.node_count g then
    invalid_arg ("Inject.install: " ^ what ^ " node out of range")

let install ~seed ~plan engine net =
  Plan.validate plan;
  let g = Net.links net in
  let rng = Rng.create seed in
  let set_down ls on = List.iter (fun l -> Link.set_up l (not on)) ls in
  List.iteri
    (fun idx spec ->
      (* what turning the episode on (true) or off (false) does *)
      let effect =
        match (spec : Plan.spec) with
        | Plan.Link_down { u; v; _ } | Plan.Link_flap { u; v; _ } ->
          set_down (links g (`Between (u, v)))
        | Plan.Unidirectional_down { u; v; _ } ->
          set_down (links g (`From (u, v)))
        | Plan.Node_crash { node; _ } -> set_down (links g (`Incident node))
        | Plan.Link_loss { u; v; prob; _ }
        | Plan.Link_corrupt { u; v; prob; _ }
        | Plan.Gray_loss { u; v; prob; _ } ->
          let set_prob =
            match spec with
            | Plan.Link_loss _ -> Link.set_loss_prob
            | Plan.Link_corrupt _ -> Link.set_corrupt_prob
            | _ -> Link.set_gray_loss_prob
          in
          let ls = links g (`Between (u, v)) in
          let episode_rng = Rng.split rng in
          fun on ->
            List.iter
              (fun l ->
                if on then Link.set_fault_rng l episode_rng;
                set_prob l (if on then prob else 0.0))
              ls
        | Plan.Latency_spike { u; v; extra_s; _ } ->
          let ls = links g (`Between (u, v)) in
          fun on ->
            List.iter
              (fun l -> Link.set_extra_latency l (if on then extra_s else 0.0))
              ls
        | Plan.Blackhole { node; _ } ->
          check_node g node "blackhole";
          Net.set_blackhole net node
        | Plan.Middlebox_break { node; covert; _ } ->
          check_node g node "middlebox";
          let active = ref false in
          Net.add_middlebox net node
            (Middlebox.make ~reveals_presence:(not covert)
               ~name:Plan.broken_device_name (fun _ ->
                 if !active then Middlebox.Drop else Middlebox.Forward));
          fun on -> active := on
      in
      let toggles = Plan.toggles spec in
      (match toggles with
      | (t, _) :: _ when t < Engine.now engine ->
        invalid_arg "Inject.install: window opens in the engine's past"
      | _ -> ());
      let node, peer = located spec in
      List.iter
        (fun (t, on) ->
          Engine.schedule engine t (fun _ ->
              if Flight.enabled () then
                Flight.emit ~sim_t:(Engine.now engine)
                  ~flow:Flight.control_flow ~node ~peer
                  ~detail:(Plan.spec_string spec) ~value:(float_of_int idx)
                  (if on then "fault-open" else "fault-close");
              effect on))
        toggles)
    plan
