(* Sweep report: the `tussle.sweep-report/1` artifact emitted by
   `tussle sweep`.  Same discipline as the battery report (schema tag,
   decoder built from [Json]'s combinators) with one
   deliberate difference: no [generated_at] or any other wall-clock
   field — the sweep's contract is byte-identical output across
   --domains and across repeated runs at the same seed, so everything
   in the artifact must derive from (seed, config) alone. *)

type metric = {
  name : string;
  samples : float array;  (* one per run, in run order *)
  mean : float;
  stddev : float;  (* sample (n-1) stddev *)
  ci_lo : float;
  ci_hi : float;  (* 95% Student-t interval for the mean *)
}

type verdict = {
  claim : string;
  test : string;  (* e.g. "paired t, greater" *)
  statistic : float;
  df : float;
  pvalue : float;
  alpha : float;
  pass : bool;
}

type exp = {
  id : string;
  title : string;
  runs : int;
  metrics : metric list;
  verdicts : verdict list;
}

(* No [domains] (and no [generated_at]): the artifact must be
   byte-identical however many domains ran the sweep. *)
type t = {
  label : string;
  sweep_seed : int;
  runs : int;
  experiments : exp list;
}

let schema_tag = "tussle.sweep-report/1"

let make ?(label = "sweep") ~sweep_seed ~runs experiments =
  { label; sweep_seed; runs; experiments }

let count_verdicts t =
  List.fold_left
    (fun (total, passed) e ->
      List.fold_left
        (fun (total, passed) v -> (total + 1, if v.pass then passed + 1 else passed))
        (total, passed) e.verdicts)
    (0, 0) t.experiments

(* Degenerate sweeps can produce an infinite t statistic (zero spread,
   nonzero difference).  The JSON layer renders non-finite floats as
   null, which would destroy the value — encode them as tagged
   strings instead so the artifact round-trips. *)
let stat_to_json f =
  if Float.is_finite f then Json.Float f
  else if Float.is_nan f then Json.Str "nan"
  else Json.Str (if f > 0.0 then "inf" else "-inf")

let stat_of_json = function
  | Json.Str "inf" -> Some infinity
  | Json.Str "-inf" -> Some neg_infinity
  | Json.Str "nan" -> Some Float.nan
  | j -> Json.to_float j

let metric_to_json m =
  Json.Obj
    [
      ("name", Json.Str m.name);
      ("n", Json.Int (Array.length m.samples));
      ("mean", Json.Float m.mean);
      ("stddev", Json.Float m.stddev);
      ("ci_lo", Json.Float m.ci_lo);
      ("ci_hi", Json.Float m.ci_hi);
      ( "samples",
        Json.List (Array.to_list (Array.map (fun x -> Json.Float x) m.samples)) );
    ]

let verdict_to_json v =
  Json.Obj
    [
      ("claim", Json.Str v.claim);
      ("test", Json.Str v.test);
      ("statistic", stat_to_json v.statistic);
      ("df", Json.Float v.df);
      ("pvalue", Json.Float v.pvalue);
      ("alpha", Json.Float v.alpha);
      ("pass", Json.Bool v.pass);
    ]

let exp_to_json e =
  Json.Obj
    [
      ("id", Json.Str e.id);
      ("title", Json.Str e.title);
      ("runs", Json.Int e.runs);
      ("metrics", Json.List (List.map metric_to_json e.metrics));
      ("verdicts", Json.List (List.map verdict_to_json e.verdicts));
    ]

let to_json t =
  let total, passed = count_verdicts t in
  Json.Obj
    [
      ("schema", Json.Str schema_tag);
      ("label", Json.Str t.label);
      ("sweep_seed", Json.Int t.sweep_seed);
      ("runs", Json.Int t.runs);
      ( "summary",
        Json.Obj
          [
            ("experiments", Json.Int (List.length t.experiments));
            ("verdicts", Json.Int total);
            ("passed", Json.Int passed);
          ] );
      ("experiments", Json.List (List.map exp_to_json t.experiments));
    ]

(* ---------- parsing ---------- *)

let ( let* ) = Json.( let* )

let metric_of_json j =
  let* name = Json.field "name" Json.to_str j in
  let* n = Json.field "n" Json.to_int j in
  let* mean = Json.field "mean" Json.to_float j in
  let* stddev = Json.field "stddev" Json.to_float j in
  let* ci_lo = Json.field "ci_lo" Json.to_float j in
  let* ci_hi = Json.field "ci_hi" Json.to_float j in
  let* samples = Json.field "samples" Json.to_list j in
  let* samples =
    Json.list
      (fun s ->
        match Json.to_float s with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "metric %S: non-number sample" name))
      samples
  in
  let samples = Array.of_list samples in
  if Array.length samples <> n then
    Error (Printf.sprintf "metric %S: n=%d but %d samples" name n (Array.length samples))
  else Ok { name; samples; mean; stddev; ci_lo; ci_hi }

let verdict_of_json j =
  let* claim = Json.field "claim" Json.to_str j in
  let* test = Json.field "test" Json.to_str j in
  let* statistic = Json.field "statistic" stat_of_json j in
  let* df = Json.field "df" Json.to_float j in
  let* pvalue = Json.field "pvalue" Json.to_float j in
  let* alpha = Json.field "alpha" Json.to_float j in
  let* pass = Json.field "pass" Json.to_bool j in
  Ok { claim; test; statistic; df; pvalue; alpha; pass }

let exp_of_json j =
  let* id = Json.field "id" Json.to_str j in
  let* title = Json.field "title" Json.to_str j in
  let* runs = Json.field "runs" Json.to_int j in
  let* metrics = Json.field "metrics" Json.to_list j in
  let* metrics = Json.list metric_of_json metrics in
  let* verdicts = Json.field "verdicts" Json.to_list j in
  let* verdicts = Json.list verdict_of_json verdicts in
  Ok { id; title; runs; metrics; verdicts }

let of_json json =
  let* schema = Json.field "schema" Json.to_str json in
  let* () =
    if schema = schema_tag then Ok ()
    else Error (Printf.sprintf "unknown schema %S (expected %S)" schema schema_tag)
  in
  let* label = Json.field "label" Json.to_str json in
  let* sweep_seed = Json.field "sweep_seed" Json.to_int json in
  let* runs = Json.field "runs" Json.to_int json in
  let* exps = Json.field "experiments" Json.to_list json in
  let* experiments = Json.list exp_of_json exps in
  Ok { label; sweep_seed; runs; experiments }

(* ---------- validation ---------- *)

(* A metric must be what its samples say: finite statistics, a CI that
   brackets the mean, and a mean equal (relative 1e-9) to the samples'
   own average, summed here in run order as [Stats.mean] does.  Called
   once the sweep's [runs >= 2] holds, so [n] is never 0. *)
let check_metric (e : exp) m =
  let where = Printf.sprintf "%s/%s" e.id m.name in
  let n = Array.length m.samples in
  let actual = Array.fold_left ( +. ) 0.0 m.samples /. float_of_int n in
  if n <> e.runs then
    Error (Printf.sprintf "%s: %d samples for %d runs" where n e.runs)
  else if not (Float.is_finite m.mean) then
    Error (Printf.sprintf "%s: mean is %g" where m.mean)
  else if not (Float.is_finite m.stddev && m.stddev >= 0.0) then
    Error (Printf.sprintf "%s: stddev is %g" where m.stddev)
  else if Array.exists (fun x -> not (Float.is_finite x)) m.samples then
    Error (Printf.sprintf "%s: non-finite sample" where)
  else if not (m.ci_lo <= m.mean && m.mean <= m.ci_hi) then
    Error
      (Printf.sprintf "%s: CI [%g, %g] does not bracket mean %g" where m.ci_lo
         m.ci_hi m.mean)
  else if
    Float.abs (actual -. m.mean) > 1e-9 *. Float.max 1.0 (Float.abs actual)
  then
    Error
      (Printf.sprintf "%s: recorded mean %g but samples average to %g" where
         m.mean actual)
  else Ok ()

let check_verdict (e : exp) v =
  if v.pass = (v.pvalue < v.alpha) then Ok ()
  else
    Error
      (Printf.sprintf
         "experiment %s: verdict %S pass flag disagrees with p=%g alpha=%g"
         e.id v.claim v.pvalue v.alpha)

let validate json =
  let* t = of_json json in
  let* () = if t.runs >= 2 then Ok () else Error "runs must be >= 2" in
  let* summary = Json.field "summary" Option.some json in
  let* s_exps = Json.field "experiments" Json.to_int summary in
  let* s_verdicts = Json.field "verdicts" Json.to_int summary in
  let* s_passed = Json.field "passed" Json.to_int summary in
  let* () =
    if List.length t.experiments = s_exps then Ok ()
    else
      Error
        (Printf.sprintf "summary.experiments=%d but %d listed" s_exps
           (List.length t.experiments))
  in
  let total, passed = count_verdicts t in
  let* () =
    if total = s_verdicts && passed = s_passed then Ok ()
    else Error "summary verdict counts do not match experiment verdicts"
  in
  Json.list
    (fun (e : exp) ->
      let* () =
        if e.runs = t.runs then Ok ()
        else
          Error
            (Printf.sprintf "experiment %s: runs=%d but sweep runs=%d" e.id
               e.runs t.runs)
      in
      let* _ = Json.list (check_metric e) e.metrics in
      Json.list (check_verdict e) e.verdicts)
    t.experiments
  |> Result.map ignore

(* ---------- rendering ---------- *)

let summary t =
  let buf = Buffer.create 1024 in
  let total, passed = count_verdicts t in
  Buffer.add_string buf
    (Printf.sprintf "## Sweep report: %s (seed %d, %d runs)\n\n" t.label
       t.sweep_seed t.runs);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s  [%d runs]\n" e.id e.title e.runs);
      List.iter
        (fun m ->
          Buffer.add_string buf
            (Printf.sprintf "  metric %-28s mean %12.6f  sd %10.6f  95%% CI [%12.6f, %12.6f]\n"
               m.name m.mean m.stddev m.ci_lo m.ci_hi))
        e.metrics;
      List.iter
        (fun v ->
          Buffer.add_string buf
            (Printf.sprintf "  %s %s (%s): t=%s df=%.1f p=%s (alpha %g)\n"
               (if v.pass then "PASS" else "FAIL")
               v.claim v.test
               (if Float.is_finite v.statistic then
                  Printf.sprintf "%.4f" v.statistic
                else Printf.sprintf "%f" v.statistic)
               v.df
               (if v.pvalue < 1e-12 then Printf.sprintf "%.3e" v.pvalue
                else Printf.sprintf "%.6f" v.pvalue)
               v.alpha))
        e.verdicts)
    t.experiments;
  Buffer.add_string buf
    (Printf.sprintf "\n%d verdict%s: %d passed, %d failed\n" total
       (if total = 1 then "" else "s")
       passed (total - passed));
  Buffer.contents buf
