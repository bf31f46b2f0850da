type scheme =
  | Provider_based of { static_hosts : int }
  | Dynamic of { hosts : int }
  | Portable of { prefixes : int }

(* renumbering cost per statically configured host and reconfiguration
   cost of a dynamic site *)
let per_static_host = 1.0
let site_overhead = 0.5

let switching_cost = function
  | Provider_based { static_hosts } ->
    if static_hosts < 0 then invalid_arg "Address: negative hosts";
    float_of_int static_hosts *. per_static_host
  | Dynamic { hosts } ->
    if hosts < 0 then invalid_arg "Address: negative hosts";
    site_overhead
  | Portable _ -> 0.0
