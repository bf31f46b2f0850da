module Json = Tussle_obs.Json
module Report = Tussle_obs.Report
module Sweep_report = Tussle_obs.Sweep_report
module Search_report = Tussle_obs.Search_report

(* One row per artifact schema: its tag, what to call it, its validator,
   and the members of its summary line (name, path from the root). *)
let top k = (k, [ k ])
let summary k = (k, [ "summary"; k ])

let battery =
  ( Report.schema_tag,
    "battery report",
    Report.validate,
    [ top "label"; ("experiments", [ "summary"; "total" ]); summary "held";
      summary "violated"; summary "failed" ] )

let kinds =
  [
    ( Search_report.schema_tag,
      "search report",
      Search_report.validate,
      [ top "label"; top "backend"; summary "runs"; summary "frontier";
        summary "violations"; summary "corpus_added" ] );
    ( Sweep_report.schema_tag,
      "sweep report",
      Sweep_report.validate,
      [ top "label"; summary "experiments"; summary "verdicts"; summary "passed" ]
    );
    ( Explain.schema,
      "flow trace",
      Explain.validate_json,
      [ top "scenario"; top "seed"; top "clean"; top "events_recorded" ] );
    battery;
  ]

let show json (name, path) =
  name ^ "="
  ^
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path with
  | Some (Json.Str s) -> s
  | Some j -> Json.to_string j
  | None -> "?"

let check json =
  let tag = Option.bind (Json.member "schema" json) Json.to_str in
  let tag, name, validate, fields =
    Option.value ~default:battery
      (List.find_opt (fun (t, _, _, _) -> Some t = tag) kinds)
  in
  match validate json with
  | Error msg -> Error (name, msg)
  | Ok () -> Ok (tag, String.concat " " (List.map (show json) fields))
