module Packet = Tussle_netsim.Packet
module Middlebox = Tussle_netsim.Middlebox

type authority = Admin | End_user of int

type selector = {
  sel_src : int option;
  sel_dst : int option;
  sel_port : int option;
}

type rule = {
  rule_id : int;
  issued_by : authority;
  allow : bool;
  selector : selector;
  visible_to_subjects : bool;
}

type t = {
  users_may_override : bool;
  mutable rules : rule list; (* newest first *)
  mutable next_id : int;
}

let create ?(users_may_override = false) () =
  { users_may_override; rules = []; next_id = 0 }

let any = { sel_src = None; sel_dst = None; sel_port = None }

let within_authority authority selector =
  match authority with
  | Admin -> true
  | End_user u -> selector.sel_src = Some u || selector.sel_dst = Some u

let add_rule t authority ~allow ?(visible = true) selector =
  if not (within_authority authority selector) then Error `Beyond_authority
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    t.rules <-
      {
        rule_id = id;
        issued_by = authority;
        allow;
        selector;
        visible_to_subjects = visible;
      }
      :: t.rules;
    Ok id
  end

let sel_matches sel (p : Packet.t) =
  let ok field value =
    match field with None -> true | Some v -> v = value
  in
  ok sel.sel_src p.Packet.src
  && ok sel.sel_dst p.Packet.dst
  && ok sel.sel_port (Packet.visible_port p)

let permits t p =
  let matching = List.filter (fun r -> sel_matches r.selector p) t.rules in
  let admin = List.find_opt (fun r -> r.issued_by = Admin) matching in
  let user =
    List.find_opt
      (fun r -> match r.issued_by with End_user _ -> true | Admin -> false)
      matching
  in
  (* rules lists are newest-first, so find_opt picks the most recent of
     each authority *)
  match (admin, user, t.users_may_override) with
  | _, Some u, true -> u.allow
  | Some a, _, _ -> a.allow
  | None, Some u, false -> u.allow
  | None, None, _ -> true

let middlebox t =
  let all_visible () =
    List.for_all (fun r -> r.visible_to_subjects) t.rules
  in
  Middlebox.make ~reveals_presence:(all_visible ()) ~name:"controlled-firewall"
    (fun p -> if permits t p then Middlebox.Forward else Middlebox.Drop)

let concerns_user rule ~user =
  (* the rule can match some traffic of the user: either endpoint is
     pinned to the user, or is a wildcard *)
  match (rule.selector.sel_src, rule.selector.sel_dst) with
  | Some s, _ when s = user -> true
  | _, Some d when d = user -> true
  | None, _ | _, None -> true
  | Some _, Some _ -> false

let rules_constraining t ~user =
  List.filter (fun r -> (not r.allow) && concerns_user r ~user) t.rules

let visible_rules t ~user =
  List.filter (fun r -> r.visible_to_subjects) (rules_constraining t ~user)

let rule_transparency t ~user =
  let constraining = rules_constraining t ~user in
  match constraining with
  | [] -> 1.0
  | _ ->
    float_of_int (List.length (visible_rules t ~user))
    /. float_of_int (List.length constraining)
