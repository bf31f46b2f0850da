type t = {
  n : int;
  edges : (int, (int * float) list) Hashtbl.t; (* truster -> [(trustee, w)] *)
}

let create n =
  if n < 0 then invalid_arg "Trust_graph.create: negative size";
  { n; edges = Hashtbl.create (max 16 n) }

let check t i name =
  if i < 0 || i >= t.n then invalid_arg (name ^ ": party out of range")

let set_trust t ~truster ~trustee w =
  check t truster "Trust_graph.set_trust";
  check t trustee "Trust_graph.set_trust";
  if w < 0.0 || w > 1.0 then invalid_arg "Trust_graph.set_trust: weight not in [0,1]";
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.edges truster) in
  let cur = List.remove_assoc trustee cur in
  Hashtbl.replace t.edges truster ((trustee, w) :: cur)

let direct_trust t ~truster ~trustee =
  check t truster "Trust_graph.direct_trust";
  check t trustee "Trust_graph.direct_trust";
  if truster = trustee then 1.0
  else
    match Hashtbl.find_opt t.edges truster with
    | None -> 0.0
    | Some l -> Option.value ~default:0.0 (List.assoc_opt trustee l)

let derived_trust ?(max_depth = 4) t ~truster ~trustee =
  check t truster "Trust_graph.derived_trust";
  check t trustee "Trust_graph.derived_trust";
  if max_depth < 1 then invalid_arg "Trust_graph.derived_trust: depth < 1";
  if truster = trustee then 1.0
  else begin
    (* best.(v).(d) = best product reaching v in exactly <= d hops; simple
       depth-bounded Bellman-Ford since max_depth is small *)
    let best = Array.make t.n 0.0 in
    best.(truster) <- 1.0;
    let result = ref 0.0 in
    for _ = 1 to max_depth do
      let next = Array.copy best in
      Hashtbl.iter
        (fun u succs ->
          if best.(u) > 0.0 then
            List.iter
              (fun (v, w) ->
                let candidate = best.(u) *. w in
                if candidate > next.(v) then next.(v) <- candidate)
              succs)
        t.edges;
      Array.blit next 0 best 0 t.n;
      best.(truster) <- 1.0;
      if best.(trustee) > !result then result := best.(trustee)
    done;
    !result
  end

let trusts ?max_depth t ~threshold a b =
  derived_trust ?max_depth t ~truster:a ~trustee:b >= threshold

let add_mutual t a b w =
  set_trust t ~truster:a ~trustee:b w;
  set_trust t ~truster:b ~trustee:a w
