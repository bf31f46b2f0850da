type move = Deploy of string | Withdraw of string | Pass

type round = {
  index : int;
  moves : (int * move) list;
  deployed_after : Mechanism.t list;
  outcome : Interest.stance;
}

type ending =
  | Fixpoint of int
  | Cycle of { start : int; period : int }
  | Horizon

type result = {
  rounds : round list;
  ending : ending;
  final_outcome : Interest.stance;
  utilities : (int * float) list;
}

(* actor's utility of a deployment state: alignment with the net outcome
   minus the cost of its own still-deployed mechanisms *)
let state_utility (actor : Actor.t) deployed =
  let outcome = Mechanism.net_effect deployed in
  let own_cost =
    List.fold_left
      (fun acc (m : Mechanism.t) ->
        if m.Mechanism.deployer = actor.Actor.kind then
          acc +. m.Mechanism.cost
        else acc)
      0.0 deployed
  in
  Actor.utility actor outcome -. own_cost

let deployed_names deployed =
  List.map (fun (m : Mechanism.t) -> m.Mechanism.name) deployed

let best_move (actor : Actor.t) available deployed =
  let current = state_utility actor deployed in
  let options = available actor.Actor.kind in
  let deploy_candidates =
    List.filter_map
      (fun (m : Mechanism.t) ->
        if List.mem m.Mechanism.name (deployed_names deployed) then None
        else
          let u = state_utility actor (deployed @ [ m ]) in
          if u > current +. 1e-9 then Some (Deploy m.Mechanism.name, u)
          else None)
      options
  in
  let withdraw_candidates =
    List.filter_map
      (fun (m : Mechanism.t) ->
        if m.Mechanism.deployer <> actor.Actor.kind then None
        else
          let without =
            List.filter
              (fun (d : Mechanism.t) ->
                not (String.equal d.Mechanism.name m.Mechanism.name))
              deployed
          in
          if List.length without = List.length deployed then None
          else
            let u = state_utility actor without in
            if u > current +. 1e-9 then Some (Withdraw m.Mechanism.name, u)
            else None)
      options
  in
  (* first (catalogue-order) candidate with the maximal gain *)
  let candidates = deploy_candidates @ withdraw_candidates in
  match candidates with
  | [] -> Pass
  | first :: rest ->
    let best =
      List.fold_left
        (fun (bm, bu) (m, u) -> if u > bu +. 1e-9 then (m, u) else (bm, bu))
        first rest
    in
    fst best

let apply_move ~options deployed = function
  | Pass -> deployed
  | Deploy name -> begin
    match
      List.find_opt
        (fun (m : Mechanism.t) -> String.equal m.Mechanism.name name)
        (options @ Mechanism.catalogue)
    with
    | Some m -> deployed @ [ m ]
    | None -> deployed
  end
  | Withdraw name ->
    List.filter (fun (m : Mechanism.t) -> m.Mechanism.name <> name) deployed

let run ?(max_rounds = 50) ~actors ~available () =
  if max_rounds <= 0 then invalid_arg "Scenario.run: non-positive horizon";
  let ordered =
    List.sort (fun (a : Actor.t) b -> compare a.Actor.id b.Actor.id) actors
  in
  let seen = Hashtbl.create 16 in
  let rec go index deployed rounds_acc =
    let key = String.concat "|" (deployed_names deployed) in
    let repeat = Hashtbl.find_opt seen key in
    if index >= max_rounds then finish deployed rounds_acc Horizon
    else begin
      match repeat with
      | Some start when rounds_acc <> [] ->
        finish deployed rounds_acc (Cycle { start; period = index - start })
      | Some _ | None ->
        Hashtbl.replace seen key index;
        let moves = ref [] in
        let deployed' =
          List.fold_left
            (fun dep (actor : Actor.t) ->
              let mv = best_move actor available dep in
              moves := (actor.Actor.id, mv) :: !moves;
              let options = available actor.Actor.kind in
              (* a deploy move redeploys: apply after removing stale copy *)
              match mv with
              | Deploy name ->
                apply_move ~options
                  (List.filter
                     (fun (m : Mechanism.t) -> m.Mechanism.name <> name)
                     dep)
                  mv
              | Withdraw _ | Pass -> apply_move ~options dep mv)
            deployed ordered
        in
        let all_pass =
          List.for_all (fun (_, m) -> m = Pass) !moves
        in
        let round =
          {
            index;
            moves = List.rev !moves;
            deployed_after = deployed';
            outcome = Mechanism.net_effect deployed';
          }
        in
        if all_pass then finish deployed' (round :: rounds_acc) (Fixpoint (index + 1))
        else go (index + 1) deployed' (round :: rounds_acc)
    end
  and finish deployed rounds_acc ending =
    let final_outcome = Mechanism.net_effect deployed in
    {
      rounds = List.rev rounds_acc;
      ending;
      final_outcome;
      utilities =
        List.map
          (fun (a : Actor.t) -> (a.Actor.id, state_utility a deployed))
          ordered;
    }
  in
  go 0 [] []

let move_to_string = function
  | Deploy name -> "deploy " ^ name
  | Withdraw name -> "withdraw " ^ name
  | Pass -> "pass"

let ending_to_string = function
  | Fixpoint n -> Printf.sprintf "fixpoint after %d rounds" n
  | Cycle { start; period } ->
    Printf.sprintf "cycle (start=%d, period=%d)" start period
  | Horizon -> "horizon reached"

let render r =
  let b = Buffer.create 512 in
  List.iter
    (fun round ->
      match
        List.filter_map
          (fun (id, m) ->
            if m = Pass then None
            else Some (Printf.sprintf "%d:%s" id (move_to_string m)))
          round.moves
      with
      | [] -> ()
      | moves ->
        Printf.bprintf b "round %2d | %s\n" round.index (String.concat "; " moves))
    r.rounds;
  Printf.bprintf b "ending: %s\n" (ending_to_string r.ending);
  Buffer.add_string b (Format.asprintf "outcome: %a\n" Interest.pp r.final_outcome);
  Buffer.contents b
