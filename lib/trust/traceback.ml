module Rng = Tussle_prelude.Rng

type observation = (int * int) list

let simulate rng ~(path : int list) ~p ~packets =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Traceback.simulate: p not in (0,1)";
  if packets <= 0 then invalid_arg "Traceback.simulate: no packets";
  if path = [] then invalid_arg "Traceback.simulate: empty path";
  let hops = Array.of_list path in
  let k = Array.length hops in
  (* [slot.(i)] is the first position of router [hops.(i)], so a router
     listed twice keeps one count *)
  let slot =
    Array.init k (fun i ->
        let j = ref 0 in
        while hops.(!j) <> hops.(i) do
          incr j
        done;
        !j)
  in
  let counts = Array.make k 0 in
  for _ = 1 to packets do
    (* the packet travels attacker -> victim; each router overwrites the
       mark with probability p.  [mark] is a slot, -1 for unmarked: no
       allocation per packet. *)
    let mark = ref (-1) in
    for i = 0 to k - 1 do
      if Rng.bernoulli rng p then mark := slot.(i)
    done;
    if !mark >= 0 then counts.(!mark) <- counts.(!mark) + 1
  done;
  List.init k (fun i -> (hops.(i), counts.(slot.(i)))) |> List.sort compare

let reconstruct obs =
  (* victim-closest routers are marked most; the attacker-to-victim
     order is ascending mark count *)
  List.sort
    (fun (ra, ca) (rb, cb) ->
      match compare ca cb with 0 -> compare ra rb | c -> c)
    obs
  |> List.map fst

let accuracy ~truth ~guess =
  if List.length truth <> List.length guess then 0.0
  else if truth = [] then 1.0
  else begin
    let hits =
      List.fold_left2
        (fun acc a b -> if a = b then acc + 1 else acc)
        0 truth guess
    in
    float_of_int hits /. float_of_int (List.length truth)
  end

let expected_marks ~p ~distance ~packets =
  if distance < 1 then invalid_arg "Traceback.expected_marks: distance < 1";
  float_of_int packets *. p *. ((1.0 -. p) ** float_of_int (distance - 1))
