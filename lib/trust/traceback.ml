module Rng = Tussle_prelude.Rng

type observation = (int * int) list

let simulate rng ~(path : int list) ~p ~packets =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Traceback.simulate: p not in (0,1)";
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
  (* One draw per packet, from the mark's exact distribution: the
     router [d] hops upstream of the victim holds the mark with
     probability p(1-p)^(d-1), so the [j] routers nearest the victim
     hold it with probability 1 - (1-p)^j.  [thr.(j - 1)] is that sum
     scaled to 2^62, the range of [Rng.bits]; a draw at or past
     [thr.(k - 1)] leaves the packet unmarked.  Where the sum rounds to
     1.0 the threshold is clamped to [max_int]: [int_of_float] of 2^62
     overflows. *)
  let log_keep = Float.log1p (-.p) in
  let thr =
    Array.init k (fun j ->
        let x = -.Float.expm1 (float_of_int (j + 1) *. log_keep) *. 0x1p62 in
        if x >= 0x1p62 then max_int else int_of_float x)
  in
  let counts = Array.make k 0 in
  for _ = 1 to packets do
    let u = Rng.bits rng in
    (* the thresholds rise, so the number at or below [u] is the
       distance, less one, of the marking router: a count with no
       branch to mispredict, where a scan from the victim side took a
       quarter longer *)
    let j = ref 0 in
    for i = 0 to k - 1 do
      j := !j + Bool.to_int (u >= Array.unsafe_get thr i)
    done;
    if !j < k then begin
      let s = slot.(k - 1 - !j) in
      counts.(s) <- counts.(s) + 1
    end
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
