type issue =
  | Transparency
  | Privacy
  | Control
  | Revenue
  | Openness
  | Security
  | Innovation
  | Accountability

let all_issues =
  [
    Transparency; Privacy; Control; Revenue; Openness; Security; Innovation;
    Accountability;
  ]

let issue_to_string = function
  | Transparency -> "transparency"
  | Privacy -> "privacy"
  | Control -> "control"
  | Revenue -> "revenue"
  | Openness -> "openness"
  | Security -> "security"
  | Innovation -> "innovation"
  | Accountability -> "accountability"

type stance = (issue * float) list

let clamp x = Float.max (-1.0) (Float.min 1.0 x)

let make bindings =
  let rec dedupe seen = function
    | [] -> []
    | (i, w) :: rest ->
      if List.mem i seen then dedupe seen rest
      else (i, clamp w) :: dedupe (i :: seen) rest
  in
  dedupe [] bindings

let weight stance issue =
  Option.value ~default:0.0 (List.assoc_opt issue stance)

let dot a b =
  List.fold_left
    (fun acc issue -> acc +. (weight a issue *. weight b issue))
    0.0 all_issues

let combine stances =
  List.filter_map
    (fun issue ->
      let w =
        List.fold_left (fun acc s -> acc +. weight s issue) 0.0 stances
      in
      if w = 0.0 then None else Some (issue, clamp w))
    all_issues

let pp ppf stance =
  Format.fprintf ppf "{";
  List.iteri
    (fun k (i, w) ->
      Format.fprintf ppf "%s%s=%.2f"
        (if k > 0 then ", " else "")
        (issue_to_string i) w)
    stance;
  Format.fprintf ppf "}"
