type probe_result =
  | Reached
  | Reported_block of string * int
  | Lost

type verdict =
  | Clean
  | Blocked_at of string * int
  | Blocked_between of int * int
  | Unreachable_at_start

let verdict_string = function
  | Clean -> "path clean"
  | Blocked_at (name, node) ->
    Printf.sprintf "device %S confessed at node %d" name node
  | Blocked_between (a, b) ->
    Printf.sprintf "bracketed between nodes %d and %d" a b
  | Unreachable_at_start -> "dead at the first hop"

type report = { verdict : verdict; probes_used : int }

let localize ~probe ~path =
  if List.length path < 2 then invalid_arg "Diagnosis.localize: path too short";
  let nodes = Array.of_list path in
  let n = Array.length nodes in
  let probes = ref 0 in
  let run target =
    incr probes;
    probe target
  in
  match run nodes.(n - 1) with
  | Reached -> { verdict = Clean; probes_used = !probes }
  | Reported_block (name, node) ->
    { verdict = Blocked_at (name, node); probes_used = !probes }
  | Lost ->
    (* silent failure: scan forward for the last answering node
       (linear scan: paths are short, and filters may be node-specific
       so reachability need not be monotone along the path) *)
    let bracket last_ok =
      if last_ok < 0 then
        if n = 2 then Blocked_between (nodes.(0), nodes.(1))
        else Unreachable_at_start
      else Blocked_between (nodes.(last_ok), nodes.(last_ok + 1))
    in
    let rec scan i last_ok =
      if i > n - 2 then
        (* every intermediate node answered: the failure sits on the
           last hop *)
        Blocked_between (nodes.(n - 2), nodes.(n - 1))
      else begin
        match run nodes.(i) with
        | Reached -> scan (i + 1) i
        | Reported_block (name, node) -> Blocked_at (name, node)
        | Lost -> bracket last_ok
      end
    in
    let verdict = scan 1 (-1) in
    { verdict; probes_used = !probes }

let net_probe net engine ~make =
  (* matched by identity: a reused id cannot stand in for the probe *)
  let awaited = ref None and outcome = ref None in
  Net.on_complete net (fun q o ->
      match !awaited with Some p when p == q -> outcome := Some o | _ -> ());
  fun target ->
    let p = make ~target in
    awaited := Some p;
    outcome := None;
    Net.inject net engine p;
    Engine.run engine;
    match !outcome with
    | Some (Net.Delivered _) -> Reached
    | Some (Net.Lost (Net.Filtered (name, node))) ->
      let revealing =
        List.exists
          (fun mb -> Middlebox.name mb = name && Middlebox.reveals_presence mb)
          (Net.middleboxes_at net node)
      in
      if revealing then Reported_block (name, node) else Lost
    | Some (Net.Lost _) | None -> Lost
