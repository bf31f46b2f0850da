type t = {
  app : Packet.app;
  (* recency list, most recent first, plus membership set *)
  mutable order : int list;
  members : (int, unit) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

(* distinct objects held before the least recently used is evicted *)
let capacity = 25

let create ~app =
  {
    app;
    order = [];
    members = Hashtbl.create capacity;
    hits = 0;
    misses = 0;
  }

let touch t key =
  t.order <- key :: List.filter (fun k -> k <> key) t.order

let lookup t ~key =
  if Hashtbl.mem t.members key then begin
    t.hits <- t.hits + 1;
    touch t key;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let insert t ~key =
  if not (Hashtbl.mem t.members key) then begin
    if Hashtbl.length t.members >= capacity then begin
      (* evict least recently used *)
      match List.rev t.order with
      | victim :: _ ->
        Hashtbl.remove t.members victim;
        t.order <- List.filter (fun k -> k <> victim) t.order
      | [] -> ()
    end;
    Hashtbl.replace t.members key ()
  end;
  touch t key

let hits t = t.hits

let misses t = t.misses

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let size t = Hashtbl.length t.members

let content_key (p : Packet.t) = (p.Packet.dst * 65536) + p.Packet.port

let serves t p =
  if p.Packet.app <> t.app || p.Packet.encrypted then false
  else begin
    let key = content_key p in
    if lookup t ~key then true
    else begin
      insert t ~key;
      false
    end
  end
