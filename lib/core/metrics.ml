type control_point = {
  cp_name : string;
  holder : Actor.kind;
  alternatives : int;
  reveals_presence : bool;
}

type module_map = {
  modules : (string * string list) list;
  contested : string list;
}

type design = {
  design_name : string;
  control_points : control_point list;
  value_flows : (Actor.kind * Actor.kind) list;
  service_flows : (Actor.kind * Actor.kind) list;
  module_map : module_map;
}

let mean_over xs f =
  match xs with
  | [] -> 1.0
  | _ ->
    List.fold_left (fun acc x -> acc +. f x) 0.0 xs
    /. float_of_int (List.length xs)

(* Mean over control points of [1 - 1/alternatives]; 0 when a party
   has exactly one option everywhere, approaching 1 with rich choice.
   1.0 for a design with no control points (nothing constrains). *)
let choice_score d =
  mean_over d.control_points (fun cp ->
      if cp.alternatives <= 0 then 0.0
      else 1.0 -. (1.0 /. float_of_int cp.alternatives))

(* Fraction of control points that reveal their presence.  1.0 with
   no control points. *)
let visibility_score d =
  mean_over d.control_points (fun cp -> if cp.reveals_presence then 1.0 else 0.0)

(* Fraction of uncontested functions that do not share a module with
   a contested function.  1.0 when tussle is fully modularized away
   (or nothing is contested). *)
let isolation_score d =
  let mm = d.module_map in
  let contested_function f = List.mem f mm.contested in
  let uncontested =
    List.concat_map (fun (_, fns) -> List.filter (fun f -> not (contested_function f)) fns)
      mm.modules
  in
  match uncontested with
  | [] -> 1.0
  | _ ->
    let exposed f =
      List.exists
        (fun (_, fns) -> List.mem f fns && List.exists contested_function fns)
        mm.modules
    in
    let clean = List.filter (fun f -> not (exposed f)) uncontested in
    float_of_int (List.length clean) /. float_of_int (List.length uncontested)

(* Fraction of service flows with a matching compensation flow in the
   opposite direction — "whatever the compensation, recognize that it
   must flow, just as much as data must flow."  1.0 with no service
   flows. *)
let value_flow_score d =
  mean_over d.service_flows (fun (consumer, provider) ->
      if List.mem (consumer, provider) d.value_flows then 1.0 else 0.0)

type scorecard = {
  choice : float;
  visibility : float;
  isolation : float;
  value_flow : float;
  overall : float;
}

let score d =
  let choice = choice_score d in
  let visibility = visibility_score d in
  let isolation = isolation_score d in
  let value_flow = value_flow_score d in
  {
    choice;
    visibility;
    isolation;
    value_flow;
    overall = (choice +. visibility +. isolation +. value_flow) /. 4.0;
  }
