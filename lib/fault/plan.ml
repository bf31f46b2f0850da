module Rng = Tussle_prelude.Rng

type window = { from_s : float; until_s : float }

type spec =
  | Link_down of { u : int; v : int; w : window }
  | Link_loss of { u : int; v : int; w : window; prob : float }
  | Link_corrupt of { u : int; v : int; w : window; prob : float }
  | Latency_spike of { u : int; v : int; w : window; extra_s : float }
  | Node_crash of { node : int; w : window }
  | Middlebox_break of { node : int; w : window; covert : bool }
  | Gray_loss of { u : int; v : int; w : window; prob : float }
  | Unidirectional_down of { u : int; v : int; w : window }
  | Link_flap of {
      u : int;
      v : int;
      w : window;
      period_s : float;
      duty : float;
    }
  | Blackhole of { node : int; w : window }

type t = spec list

let window from_s until_s = { from_s; until_s }

let always = { from_s = 0.0; until_s = infinity }

let broken_device_name = "broken-device"

let check_window w =
  if not (Float.is_finite w.from_s) || w.from_s < 0.0 then
    invalid_arg "Fault plan: window start must be finite and >= 0";
  if not (w.until_s > w.from_s) then
    invalid_arg "Fault plan: window must end after it starts"

let check_prob p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Fault plan: probability outside [0,1]"

let check_node n = if n < 0 then invalid_arg "Fault plan: negative node id"

let check_endpoints u v =
  check_node u;
  check_node v;
  if u = v then invalid_arg "Fault plan: link endpoints must differ"

let target = function
  | Link_down { u; v; _ }
  | Link_loss { u; v; _ }
  | Link_corrupt { u; v; _ }
  | Latency_spike { u; v; _ }
  | Gray_loss { u; v; _ }
  | Unidirectional_down { u; v; _ }
  | Link_flap { u; v; _ } ->
    `Link (u, v)
  | Node_crash { node; _ } | Middlebox_break { node; _ } | Blackhole { node; _ }
    ->
    `Node node

let spec_window = function
  | Link_down { w; _ }
  | Link_loss { w; _ }
  | Link_corrupt { w; _ }
  | Latency_spike { w; _ }
  | Node_crash { w; _ }
  | Middlebox_break { w; _ }
  | Gray_loss { w; _ }
  | Unidirectional_down { w; _ }
  | Link_flap { w; _ }
  | Blackhole { w; _ } ->
    w

(* The most periods a flap window may hold.  A flap schedules two
   toggles a period, so this bounds what plan text read from a file can
   make [Inject.install] schedule.  The generators stay below half of
   it: at horizon 10 a mutant's flap holds at most a full mutation
   window (40 s) over the 0.01 s period floor, 4,000 periods. *)
let max_flap_periods = 10_000.0

let validate plan =
  List.iter
    (fun spec ->
      (match target spec with
      | `Link (u, v) -> check_endpoints u v
      | `Node node -> check_node node);
      let w = spec_window spec in
      check_window w;
      match spec with
      | Link_loss { prob; _ } | Link_corrupt { prob; _ } | Gray_loss { prob; _ }
        ->
        check_prob prob
      | Latency_spike { extra_s; _ } ->
        if not (extra_s >= 0.0) then
          invalid_arg "Fault plan: negative latency spike"
      | Link_flap { period_s; duty; _ } ->
        if not (Float.is_finite w.until_s) then
          invalid_arg "Fault plan: flap window must be finite";
        if not (Float.is_finite period_s && period_s > 0.0) then
          invalid_arg "Fault plan: flap period must be finite and positive";
        if (w.until_s -. w.from_s) /. period_s > max_flap_periods then
          invalid_arg
            (Printf.sprintf "Fault plan: flap window holds more than %.0f periods"
               max_flap_periods);
        if not (duty > 0.0 && duty < 1.0) then
          invalid_arg "Fault plan: flap duty outside (0,1)"
      | Link_down _ | Node_crash _ | Middlebox_break _ | Unidirectional_down _
      | Blackhole _ ->
        ())
    plan

let toggles spec =
  match spec with
  | Link_flap { w; period_s; duty; _ } ->
    let rec go k acc =
      let down = w.from_s +. (period_s *. float_of_int k) in
      if down < w.until_s then begin
        let up = down +. (duty *. period_s) in
        let acc = (down, true) :: acc in
        go (k + 1) (if up < w.until_s then (up, false) :: acc else acc)
      end
      else List.rev ((w.until_s, false) :: acc)
    in
    go 0 []
  | Link_down _ | Link_loss _ | Link_corrupt _ | Latency_spike _
  | Node_crash _ | Middlebox_break _ | Gray_loss _ | Unidirectional_down _
  | Blackhole _ ->
    let w = spec_window spec in
    if Float.is_finite w.until_s then [ (w.from_s, true); (w.until_s, false) ]
    else [ (w.from_s, true) ]

let transitions plan =
  List.fold_left (fun acc spec -> acc + List.length (toggles spec)) 0 plan

let draw_episode ?(extended = true) rng ~links ~horizon =
  let u, v = Rng.choice rng links in
  let from_s = Rng.uniform rng 0.0 (0.6 *. horizon) in
  let until_s = from_s +. Rng.uniform rng (0.1 *. horizon) (0.4 *. horizon) in
  let w = { from_s; until_s } in
  match Rng.int rng (if extended then 9 else 4) with
  | 0 -> Link_down { u; v; w }
  | 1 -> Link_loss { u; v; w; prob = Rng.uniform rng 0.05 0.3 }
  | 2 -> Link_corrupt { u; v; w; prob = Rng.uniform rng 0.02 0.15 }
  | 3 -> Latency_spike { u; v; w; extra_s = Rng.uniform rng 0.005 0.05 }
  | 4 -> Node_crash { node = u; w }
  | 5 -> Gray_loss { u; v; w; prob = Rng.uniform rng 0.3 0.9 }
  | 6 -> Unidirectional_down { u; v; w }
  | 7 ->
    Link_flap
      {
        u;
        v;
        w;
        period_s = Rng.uniform rng (0.05 *. horizon) (0.25 *. horizon);
        duty = Rng.uniform rng 0.2 0.8;
      }
  | _ -> Blackhole { node = v; w }

let random ?(extended = true) rng ~links ~horizon ~episodes =
  if links = [] then invalid_arg "Plan.random: no links";
  if not (horizon > 0.0) then invalid_arg "Plan.random: non-positive horizon";
  if episodes < 0 then invalid_arg "Plan.random: negative episode count";
  let links = Array.of_list links in
  List.init episodes (fun _ -> draw_episode ~extended rng ~links ~horizon)

(* ---------- mutation operators (adversarial search) ---------- *)

(* Mutated windows may outlive the scenario's nominal horizon — a
   restore event scheduled after the run's end is a classic wedge that
   [random]'s in-horizon windows can never produce — but are capped at
   [mutation_horizon_factor * horizon] so compounding widens across
   generations cannot creep toward the chaos guard horizon and turn
   every mutant into a trivial "still faulted at guard time" finding. *)
let mutation_horizon_factor = 4.0

let with_window spec w =
  match spec with
  | Link_down { u; v; w = _ } -> Link_down { u; v; w }
  | Link_loss { u; v; prob; w = _ } -> Link_loss { u; v; w; prob }
  | Link_corrupt { u; v; prob; w = _ } -> Link_corrupt { u; v; w; prob }
  | Latency_spike { u; v; extra_s; w = _ } -> Latency_spike { u; v; w; extra_s }
  | Node_crash { node; w = _ } -> Node_crash { node; w }
  | Middlebox_break { node; covert; w = _ } -> Middlebox_break { node; w; covert }
  | Gray_loss { u; v; prob; w = _ } -> Gray_loss { u; v; w; prob }
  | Unidirectional_down { u; v; w = _ } -> Unidirectional_down { u; v; w }
  | Link_flap { u; v; period_s; duty; w = _ } ->
    Link_flap { u; v; w; period_s; duty }
  | Blackhole { node; w = _ } -> Blackhole { node; w }

let clamp lo hi x = Float.max lo (Float.min hi x)

let widen_spec rng ~cap spec =
  let w = spec_window spec in
  let until_s =
    if Float.is_finite w.until_s then
      Float.min cap
        (w.from_s +. ((w.until_s -. w.from_s) *. Rng.uniform rng 1.25 2.5))
    else cap
  in
  if until_s > w.from_s then with_window spec { w with until_s } else spec

let shift_spec rng ~horizon ~cap spec =
  let w = spec_window spec in
  let dur = w.until_s -. w.from_s in
  let delta = Rng.uniform rng (-0.25 *. horizon) (0.25 *. horizon) in
  if Float.is_finite dur then begin
    let hi = Float.max 0.0 (cap -. dur) in
    let from_s = clamp 0.0 hi (w.from_s +. delta) in
    let until_s = from_s +. dur in
    if until_s > from_s then with_window spec { from_s; until_s } else spec
  end
  else with_window spec { w with from_s = Float.max 0.0 (w.from_s +. delta) }

let perturb_spec rng ~cap spec =
  let scale = Rng.uniform rng 0.5 1.6 in
  match spec with
  | Link_loss { u; v; w; prob } ->
    Link_loss { u; v; w; prob = clamp 0.0 1.0 (prob *. scale) }
  | Link_corrupt { u; v; w; prob } ->
    Link_corrupt { u; v; w; prob = clamp 0.0 1.0 (prob *. scale) }
  | Latency_spike { u; v; w; extra_s } ->
    Latency_spike { u; v; w; extra_s = extra_s *. scale }
  | Gray_loss { u; v; w; prob } ->
    Gray_loss { u; v; w; prob = clamp 0.0 1.0 (prob *. scale) }
  | Link_flap { u; v; w; period_s; duty } ->
    (* the period floor keeps compounding perturbations from driving
       the toggle count toward infinity *)
    Link_flap
      {
        u;
        v;
        w;
        period_s = clamp 0.01 cap (period_s *. scale);
        duty = clamp 0.05 0.95 (duty *. scale);
      }
  | (Link_down _ | Node_crash _ | Middlebox_break _ | Unidirectional_down _
    | Blackhole _) as s ->
    (* no probability to perturb; widen the window instead *)
    widen_spec rng ~cap s

let retarget_spec rng ~links spec =
  let u, v = Rng.choice rng links in
  match spec with
  | Link_down { w; _ } -> Link_down { u; v; w }
  | Link_loss { w; prob; _ } -> Link_loss { u; v; w; prob }
  | Link_corrupt { w; prob; _ } -> Link_corrupt { u; v; w; prob }
  | Latency_spike { w; extra_s; _ } -> Latency_spike { u; v; w; extra_s }
  | Node_crash { w; _ } -> Node_crash { node = u; w }
  | Middlebox_break { w; covert; _ } -> Middlebox_break { node = u; w; covert }
  | Gray_loss { w; prob; _ } -> Gray_loss { u; v; w; prob }
  | Unidirectional_down { w; _ } -> Unidirectional_down { u; v; w }
  | Link_flap { w; period_s; duty; _ } -> Link_flap { u; v; w; period_s; duty }
  | Blackhole { w; _ } -> Blackhole { node = u; w }

(* A mutant flap's period rises, if need be, until its window holds at
   most half of [max_flap_periods]: at long horizons the 0.01 s period
   floor alone would not keep mutants valid.  Half leaves room for
   rounding. *)
let bound_flap = function
  | Link_flap { u; v; w; period_s; duty } ->
    let floor = (w.until_s -. w.from_s) /. (max_flap_periods /. 2.0) in
    Link_flap { u; v; w; period_s = Float.max period_s floor; duty }
  | spec -> spec

let mutate rng ~links ~horizon plan =
  if links = [] then invalid_arg "Plan.mutate: no links";
  if not (horizon > 0.0) then invalid_arg "Plan.mutate: non-positive horizon";
  let links = Array.of_list links in
  let cap = mutation_horizon_factor *. horizon in
  let n = List.length plan in
  let add () =
    let at = Rng.int rng (n + 1) in
    let ep = draw_episode rng ~links ~horizon in
    List.concat
      [
        List.filteri (fun i _ -> i < at) plan;
        [ ep ];
        List.filteri (fun i _ -> i >= at) plan;
      ]
  in
  let mutate_nth f =
    let at = Rng.int rng n in
    List.mapi (fun i s -> if i = at then bound_flap (f s) else s) plan
  in
  if n = 0 then add ()
  else
    match Rng.int rng 6 with
    | 0 -> add ()
    | 1 ->
      let at = Rng.int rng n in
      List.filteri (fun i _ -> i <> at) plan
    | 2 -> mutate_nth (widen_spec rng ~cap)
    | 3 -> mutate_nth (shift_spec rng ~horizon ~cap)
    | 4 -> mutate_nth (perturb_spec rng ~cap)
    | _ -> mutate_nth (retarget_spec rng ~links)

(* Shortest decimal that parses back to exactly the same float, so
   [to_string] is both human-readable and a lossless serialization
   (the chaos corpus round-trips plans through files). *)
let float_repr x =
  if x = infinity then "inf"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let window_string w =
  Printf.sprintf "[%s, %s)" (float_repr w.from_s) (float_repr w.until_s)

let spec_string = function
  | Link_down { u; v; w } ->
    Printf.sprintf "link %d-%d down %s" u v (window_string w)
  | Link_loss { u; v; w; prob } ->
    Printf.sprintf "link %d-%d loss p=%s %s" u v (float_repr prob)
      (window_string w)
  | Link_corrupt { u; v; w; prob } ->
    Printf.sprintf "link %d-%d corrupt p=%s %s" u v (float_repr prob)
      (window_string w)
  | Latency_spike { u; v; w; extra_s } ->
    Printf.sprintf "link %d-%d latency +%ss %s" u v (float_repr extra_s)
      (window_string w)
  | Node_crash { node; w } ->
    Printf.sprintf "node %d crash %s" node (window_string w)
  | Middlebox_break { node; w; covert } ->
    Printf.sprintf "middlebox %d %s %s" node
      (if covert then "covert" else "revealing")
      (window_string w)
  | Gray_loss { u; v; w; prob } ->
    Printf.sprintf "link %d-%d gray p=%s %s" u v (float_repr prob)
      (window_string w)
  | Unidirectional_down { u; v; w } ->
    Printf.sprintf "link %d->%d down %s" u v (window_string w)
  | Link_flap { u; v; w; period_s; duty } ->
    Printf.sprintf "link %d-%d flap period=%ss duty=%s %s" u v
      (float_repr period_s) (float_repr duty) (window_string w)
  | Blackhole { node; w } ->
    Printf.sprintf "node %d blackhole %s" node (window_string w)

let to_string plan = String.concat "\n" (List.map spec_string plan)

(* ---------- parsing (the inverse of [to_string], line by line) ---------- *)

let parse_float what s =
  match float_of_string_opt s with
  | Some x when Float.is_nan x ->
    (* "nan(123)" carries a payload [float_repr] cannot print: keep
       only what it prints, the sign, so the text round-trips *)
    Ok (float_of_string (float_repr x))
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let strip_affix ~prefix ~suffix what tok =
  let n = String.length tok in
  let pl = String.length prefix and sl = String.length suffix in
  if n > pl + sl
     && String.sub tok 0 pl = prefix
     && String.sub tok (n - sl) sl = suffix
  then Ok (String.sub tok pl (n - pl - sl))
  else Error (Printf.sprintf "bad %s %S" what tok)

(* "[from, until)" arrives as the two tokens "[from," and "until)". *)
let parse_window ta tb =
  let ( let* ) = Result.bind in
  let* sa = strip_affix ~prefix:"[" ~suffix:"," "window start" ta in
  let* sb = strip_affix ~prefix:"" ~suffix:")" "window end" tb in
  let* from_s = parse_float "window start" sa in
  let* until_s = parse_float "window end" sb in
  Ok { from_s; until_s }

(* A node id is >= 0: a hex or unsigned spelling past max_int wraps
   negative, and "u-v" cannot print a negative endpoint. *)
let node_of_string tok =
  match int_of_string_opt tok with Some n when n >= 0 -> Some n | _ -> None

let parse_pair tok =
  match String.split_on_char '-' tok with
  | [ a; b ] -> begin
    match (node_of_string a, node_of_string b) with
    | Some u, Some v -> Ok (u, v)
    | _ -> Error (Printf.sprintf "bad link endpoints %S" tok)
  end
  | _ -> Error (Printf.sprintf "bad link endpoints %S" tok)

(* "u->v": the directed endpoint form Unidirectional_down renders. *)
let parse_directed_pair tok =
  match String.index_opt tok '>' with
  | Some i when i > 0 && tok.[i - 1] = '-' -> begin
    let a = String.sub tok 0 (i - 1) in
    let b = String.sub tok (i + 1) (String.length tok - i - 1) in
    match (node_of_string a, node_of_string b) with
    | Some u, Some v -> Some (u, v)
    | _ -> None
  end
  | _ -> None

let parse_node tok =
  match node_of_string tok with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad node %S" tok)

let parse_spec line =
  let ( let* ) = Result.bind in
  let tokens =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' line)
  in
  match tokens with
  | [ "link"; uv; "down"; ta; tb ] -> begin
    match parse_directed_pair uv with
    | Some (u, v) ->
      let* w = parse_window ta tb in
      Ok (Unidirectional_down { u; v; w })
    | None ->
      let* u, v = parse_pair uv in
      let* w = parse_window ta tb in
      Ok (Link_down { u; v; w })
  end
  | [ "link"; uv; "loss"; p; ta; tb ] ->
    let* u, v = parse_pair uv in
    let* ps = strip_affix ~prefix:"p=" ~suffix:"" "loss probability" p in
    let* prob = parse_float "loss probability" ps in
    let* w = parse_window ta tb in
    Ok (Link_loss { u; v; w; prob })
  | [ "link"; uv; "corrupt"; p; ta; tb ] ->
    let* u, v = parse_pair uv in
    let* ps = strip_affix ~prefix:"p=" ~suffix:"" "corrupt probability" p in
    let* prob = parse_float "corrupt probability" ps in
    let* w = parse_window ta tb in
    Ok (Link_corrupt { u; v; w; prob })
  | [ "link"; uv; "latency"; x; ta; tb ] ->
    let* u, v = parse_pair uv in
    let* xs = strip_affix ~prefix:"+" ~suffix:"s" "latency spike" x in
    let* extra_s = parse_float "latency spike" xs in
    let* w = parse_window ta tb in
    Ok (Latency_spike { u; v; w; extra_s })
  | [ "link"; uv; "gray"; p; ta; tb ] ->
    let* u, v = parse_pair uv in
    let* ps = strip_affix ~prefix:"p=" ~suffix:"" "gray probability" p in
    let* prob = parse_float "gray probability" ps in
    let* w = parse_window ta tb in
    Ok (Gray_loss { u; v; w; prob })
  | [ "link"; uv; "flap"; per; duty; ta; tb ] ->
    let* u, v = parse_pair uv in
    let* pers = strip_affix ~prefix:"period=" ~suffix:"s" "flap period" per in
    let* period_s = parse_float "flap period" pers in
    let* dutys = strip_affix ~prefix:"duty=" ~suffix:"" "flap duty" duty in
    let* duty = parse_float "flap duty" dutys in
    let* w = parse_window ta tb in
    Ok (Link_flap { u; v; w; period_s; duty })
  | [ "node"; n; "blackhole"; ta; tb ] ->
    let* node = parse_node n in
    let* w = parse_window ta tb in
    Ok (Blackhole { node; w })
  | [ "node"; n; "crash"; ta; tb ] ->
    let* node = parse_node n in
    let* w = parse_window ta tb in
    Ok (Node_crash { node; w })
  | [ "middlebox"; n; mode; ta; tb ] ->
    let* node = parse_node n in
    let* covert =
      match mode with
      | "covert" -> Ok true
      | "revealing" -> Ok false
      | other -> Error (Printf.sprintf "bad middlebox mode %S" other)
    in
    let* w = parse_window ta tb in
    Ok (Middlebox_break { node; w; covert })
  | _ -> Error (Printf.sprintf "unrecognized episode %S" line)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '#' then go acc (lineno + 1) rest
      else begin
        match parse_spec trimmed with
        | Ok spec -> go (spec :: acc) (lineno + 1) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      end
  in
  go [] 1 lines
