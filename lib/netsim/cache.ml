type t = {
  app : Packet.app;
  (* recency list, most recent first, plus membership set *)
  mutable order : int list;
  members : (int, unit) Hashtbl.t;
}

(* distinct objects held before the least recently used is evicted *)
let capacity = 25

let create ~app = { app; order = []; members = Hashtbl.create capacity }

let touch t key =
  t.order <- key :: List.filter (fun k -> k <> key) t.order

let lookup t ~key =
  let hit = Hashtbl.mem t.members key in
  if hit then touch t key;
  hit

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
