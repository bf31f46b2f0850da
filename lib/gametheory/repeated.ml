type strategy = {
  name : string;
  first : int;
  next : own_history:int list -> opp_history:int list -> int;
}

let all_cooperate =
  { name = "all-c"; first = 0; next = (fun ~own_history:_ ~opp_history:_ -> 0) }

let all_defect =
  { name = "all-d"; first = 1; next = (fun ~own_history:_ ~opp_history:_ -> 1) }

let tit_for_tat =
  {
    name = "tit-for-tat";
    first = 0;
    next =
      (fun ~own_history:_ ~opp_history ->
        match opp_history with last :: _ -> last | [] -> 0);
  }

let grim_trigger =
  {
    name = "grim";
    first = 0;
    next =
      (fun ~own_history:_ ~opp_history ->
        if List.exists (fun m -> m = 1) opp_history then 1 else 0);
  }

type match_result = {
  payoff_a : float;
  payoff_b : float;
  moves : (int * int) list;
}

let play ~rounds g sa sb =
  if rounds <= 0 then invalid_arg "Repeated.play: non-positive rounds";
  if Normal_form.rows g <> 2 || Normal_form.cols g <> 2 then
    invalid_arg "Repeated.play: stage game must be 2x2";
  let rec go round ha hb pa pb acc =
    if round >= rounds then
      { payoff_a = pa; payoff_b = pb; moves = List.rev acc }
    else begin
      let ma =
        if round = 0 then sa.first else sa.next ~own_history:ha ~opp_history:hb
      in
      let mb =
        if round = 0 then sb.first else sb.next ~own_history:hb ~opp_history:ha
      in
      let ua, ub = Normal_form.payoff g ma mb in
      go (round + 1) (ma :: ha) (mb :: hb) (pa +. ua) (pb +. ub)
        ((ma, mb) :: acc)
    end
  in
  go 0 [] [] 0.0 0.0 []

let cooperation_rate r =
  match r.moves with
  | [] -> 0.0
  | moves ->
    let coop =
      List.fold_left
        (fun acc (a, b) ->
          acc + (if a = 0 then 1 else 0) + if b = 0 then 1 else 0)
        0 moves
    in
    float_of_int coop /. float_of_int (2 * List.length moves)
