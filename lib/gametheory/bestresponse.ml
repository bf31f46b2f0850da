type game = {
  players : int;
  strategies : int array;
  payoff : int -> int array -> float;
}

let validate g =
  if g.players <= 0 then invalid_arg "Bestresponse: non-positive players";
  if Array.length g.strategies <> g.players then
    invalid_arg "Bestresponse: strategies length mismatch";
  Array.iter
    (fun s -> if s <= 0 then invalid_arg "Bestresponse: empty strategy set")
    g.strategies

(* Player's best pure strategy against a fixed profile (own entry
   ignored); ties to the lowest index. *)
let best_response g p profile =
  let scratch = Array.copy profile in
  let best = ref 0 and best_u = ref neg_infinity in
  for s = 0 to g.strategies.(p) - 1 do
    scratch.(p) <- s;
    let u = g.payoff p scratch in
    if u > !best_u +. 1e-12 then begin
      best := s;
      best_u := u
    end
  done;
  !best

let is_pure_nash g profile =
  let ok = ref true in
  for p = 0 to g.players - 1 do
    let current = g.payoff p profile in
    let scratch = Array.copy profile in
    for s = 0 to g.strategies.(p) - 1 do
      scratch.(p) <- s;
      if g.payoff p scratch > current +. 1e-9 then ok := false
    done
  done;
  !ok

(* sweeps after which the dynamics are taken to cycle *)
let max_sweeps = 1000

let converge g ~init =
  validate g;
  if Array.length init <> g.players then invalid_arg "Bestresponse.converge";
  let profile = Array.copy init in
  let rec sweep k =
    if k = 0 then None
    else begin
      let changed = ref false in
      for p = 0 to g.players - 1 do
        let br = best_response g p profile in
        if br <> profile.(p) then begin
          profile.(p) <- br;
          changed := true
        end
      done;
      if !changed then sweep (k - 1) else Some (Array.copy profile)
    end
  in
  sweep max_sweeps

let all_pure_nash g =
  validate g;
  let profile = Array.make g.players 0 in
  let acc = ref [] in
  let rec enumerate p =
    if p = g.players then begin
      if is_pure_nash g profile then acc := Array.copy profile :: !acc
    end
    else
      for s = 0 to g.strategies.(p) - 1 do
        profile.(p) <- s;
        enumerate (p + 1)
      done
  in
  enumerate 0;
  List.rev !acc

let social_welfare g profile =
  let acc = ref 0.0 in
  for p = 0 to g.players - 1 do
    acc := !acc +. g.payoff p profile
  done;
  !acc
