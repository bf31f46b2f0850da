(** Design-principle scorecard (§IV): does a design accommodate tussle?

    A design is described by its {e control points} (places where some
    stakeholder exercises power), its {e value flows} (who compensates
    whom), and its {e module map} (which functions share a module, and
    which functions are contested).  From these the four properties the
    paper asks of tussle interfaces are scored:

    {ul
    {- {b choice}: can each party select among alternatives?}
    {- {b visibility}: do control points reveal that they constrain?}
    {- {b isolation}: are contested functions modularized apart from
       uncontested ones?}
    {- {b value flow}: does compensation flow wherever service does?}} *)

type control_point = {
  cp_name : string;
  holder : Actor.kind;
  alternatives : int;  (** options the {e subject} of the control can pick among *)
  reveals_presence : bool;
}

type module_map = {
  modules : (string * string list) list;  (** module -> functions *)
  contested : string list;  (** functions inside some tussle space *)
}

type design = {
  design_name : string;
  control_points : control_point list;
  value_flows : (Actor.kind * Actor.kind) list;
      (** (payer, payee): value moves along this edge *)
  service_flows : (Actor.kind * Actor.kind) list;
      (** (consumer, provider): service moves along this edge *)
  module_map : module_map;
}

type scorecard = {
  choice : float;
  visibility : float;
  isolation : float;
  value_flow : float;
  overall : float;  (** unweighted mean *)
}

val score : design -> scorecard
