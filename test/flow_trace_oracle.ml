(* The flow-trace/1 event encoder: one object per event, seven keys
   each.  It is the oracle for the /2 columns in [test_chaos]: both
   layouts of a run, printed and parsed back, must give the same rows,
   floats equal bit for bit.  [edit] builds the planted and fuzzed
   traces of [test_chaos] and [test_obs]. *)

module Json = Tussle_obs.Json
module Flight = Tussle_obs.Flight

let event_to_json (e : Flight.event) =
  Json.Obj
    [
      ("t", Json.Float e.Flight.sim_t);
      ("flow", Json.Int e.Flight.flow);
      ("kind", Json.Str e.Flight.kind);
      ("node", Json.Int e.Flight.node);
      ("peer", Json.Int e.Flight.peer);
      ("detail", Json.Str e.Flight.detail);
      ("value", Json.Float e.Flight.value);
    ]

(* (t, flow, kind, node, peer, detail, value), the floats as their
   bits so that [=] compares them bit for bit. *)
type row = int64 * int * string * int * int * string * int64

let bits j = Int64.bits_of_float (Option.get (Json.to_float j))
let num j = Option.get (Json.to_int j)
let str j = Option.get (Json.to_str j)
let get k j = Option.get (Json.member k j)

(* The rows of a /1 events array. *)
let rows_of_objects events : row list =
  List.map
    (fun ev ->
      ( bits (get "t" ev),
        num (get "flow" ev),
        str (get "kind" ev),
        num (get "node" ev),
        num (get "peer" ev),
        str (get "detail" ev),
        bits (get "value" ev) ))
    (Option.get (Json.to_list events))

(* The rows of a /2 artifact: its columns zipped, the two indices
   looked up in their string tables. *)
let rows_of_columns artifact : row list =
  let table k = Array.of_list (List.map str (Option.get (Json.to_list (get k artifact)))) in
  let kinds = table "kinds" and details = table "details" in
  let column k = Array.of_list (Option.get (Json.to_list (get k (get "events" artifact)))) in
  let t = column "t" and flow = column "flow" and kind = column "kind" in
  let node = column "node" and peer = column "peer" and detail = column "detail" in
  let value = column "value" in
  List.init (Array.length t) (fun i ->
      ( bits t.(i),
        num flow.(i),
        kinds.(num kind.(i)),
        num node.(i),
        num peer.(i),
        details.(num detail.(i)),
        bits value.(i) ))

(* [j] with the member at [path] replaced by [f] of it. *)
let rec edit path f j =
  match (path, j) with
  | [], _ -> f j
  | k :: rest, Json.Obj fields ->
    Json.Obj (List.map (fun (k', v) -> (k', if k' = k then edit rest f v else v)) fields)
  | _ -> j
