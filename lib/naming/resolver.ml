type record = { name : string; address : int; ttl : float }

type authority = (string, record) Hashtbl.t

let authority records =
  let tbl = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace tbl r.name r) records;
  tbl

type policy =
  | Honest
  | Nxdomain_monetizing of int
  | Blocking of string list
  | Redirecting of (string * int) list

type answer = Address of int | Nxdomain | Refused

type cache_entry = { answer : answer; expires : float }

type t = {
  auth : authority;
  policy : policy;
  cache : (string, cache_entry) Hashtbl.t;
}

let create ?(policy = Honest) auth = { auth; policy; cache = Hashtbl.create 32 }

let authoritative_answer t name =
  match Hashtbl.find_opt t.auth name with
  | Some r -> (Address r.address, r.ttl)
  | None -> (Nxdomain, 60.0)

let apply_policy t name (answer, ttl) =
  match t.policy with
  | Honest -> (answer, ttl)
  | Nxdomain_monetizing ad -> begin
    match answer with
    | Nxdomain -> (Address ad, ttl)
    | Address _ | Refused -> (answer, ttl)
  end
  | Blocking names ->
    if List.mem name names then (Refused, ttl) else (answer, ttl)
  | Redirecting mapping -> begin
    match List.assoc_opt name mapping with
    | Some addr -> (Address addr, ttl)
    | None -> (answer, ttl)
  end

let resolve t ~now name =
  match Hashtbl.find_opt t.cache name with
  | Some entry when entry.expires > now -> entry.answer
  | Some _ | None ->
    let answer, ttl = apply_policy t name (authoritative_answer t name) in
    Hashtbl.replace t.cache name { answer; expires = now +. ttl };
    answer

let truthful t ~now name =
  let truth =
    match Hashtbl.find_opt t.auth name with
    | Some r -> Address r.address
    | None -> Nxdomain
  in
  resolve t ~now name = truth

let truthfulness t ~now ~names =
  match names with
  | [] -> 1.0
  | _ ->
    let ok = List.length (List.filter (truthful t ~now) names) in
    float_of_int ok /. float_of_int (List.length names)
