type exp = {
  id : string;
  title : string;
  status : string;
  detail : string;
  wall_s : float;
  events_executed : int;
  allocated_bytes : float;
}

type pool = {
  workers : int;
  tasks : int array;
  busy_s : float array;
  pool_wall_s : float;
}

type t = {
  label : string;
  generated_at : float;
  domains : int;
  wall_s : float;
  experiments : exp list;
  pool : pool option;
  metrics : (string * Metrics.value) list;
}

let schema_tag = "tussle.battery-report/1"

let make ?pool ?(metrics = []) ~domains ~wall_s experiments =
  {
    label = "battery";
    generated_at = Unix.gettimeofday ();
    domains;
    wall_s;
    experiments;
    pool;
    metrics;
  }

let imbalance p =
  if Array.length p.busy_s = 0 then 0.0
  else
    let hi = Array.fold_left max neg_infinity p.busy_s in
    let lo = Array.fold_left min infinity p.busy_s in
    if hi <= 0.0 then 0.0 else (hi -. lo) /. hi

let count_status experiments =
  List.fold_left
    (fun (h, v, f) e ->
      match e.status with
      | "held" -> (h + 1, v, f)
      | "violated" -> (h, v + 1, f)
      | _ -> (h, v, f + 1))
    (0, 0, 0) experiments

let metric_value_to_json = function
  | Metrics.Count n -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int n) ]
  | Metrics.Level { last; max_; sets } ->
    Json.Obj
      [
        ("type", Json.Str "gauge");
        ("last", Json.Float last);
        ("max", Json.Float max_);
        ("sets", Json.Int sets);
      ]
  | Metrics.Dist { count; sum; buckets; p50; p90; p99 } ->
    Json.Obj
      [
        ("type", Json.Str "histogram");
        ("count", Json.Int count);
        ("sum", Json.Float sum);
        ("p50", Json.Float p50);
        ("p90", Json.Float p90);
        ("p99", Json.Float p99);
        ( "buckets",
          Json.List
            (List.map
               (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ])
               buckets) );
      ]

let to_json t =
  let held, violated, failed = count_status t.experiments in
  let exp_json e =
    Json.Obj
      [
        ("id", Json.Str e.id);
        ("title", Json.Str e.title);
        ("status", Json.Str e.status);
        ("detail", Json.Str e.detail);
        ("wall_s", Json.Float e.wall_s);
        ("events_executed", Json.Int e.events_executed);
        ("allocated_bytes", Json.Float e.allocated_bytes);
      ]
  in
  let base =
    [
      ("schema", Json.Str schema_tag);
      ("label", Json.Str t.label);
      ("generated_at", Json.Float t.generated_at);
      ("domains", Json.Int t.domains);
      ("wall_s", Json.Float t.wall_s);
      ( "summary",
        Json.Obj
          [
            ("total", Json.Int (List.length t.experiments));
            ("held", Json.Int held);
            ("violated", Json.Int violated);
            ("failed", Json.Int failed);
          ] );
      ("experiments", Json.List (List.map exp_json t.experiments));
    ]
  in
  let pool_field =
    match t.pool with
    | None -> []
    | Some p ->
      [
        ( "pool",
          Json.Obj
            [
              ("workers", Json.Int p.workers);
              ("tasks", Json.List (Array.to_list (Array.map (fun n -> Json.Int n) p.tasks)));
              ( "busy_s",
                Json.List (Array.to_list (Array.map (fun s -> Json.Float s) p.busy_s)) );
              ("wall_s", Json.Float p.pool_wall_s);
              ("imbalance", Json.Float (imbalance p));
            ] );
      ]
  in
  let metrics_field =
    match t.metrics with
    | [] -> []
    | ms ->
      [ ("metrics", Json.Obj (List.map (fun (n, v) -> (n, metric_value_to_json v)) ms)) ]
  in
  Json.Obj (base @ pool_field @ metrics_field)

let write path t = Json.to_file path (to_json t)

let summary t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "## Battery report: %s (%d domain%s, %.2fs wall)\n\n"
       t.label t.domains
       (if t.domains = 1 then "" else "s")
       t.wall_s);
  Buffer.add_string buf
    (Printf.sprintf "%-5s %-9s %10s %12s %12s\n" "id" "status" "wall_s"
       "events" "alloc_mb");
  Buffer.add_string buf (String.make 52 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-5s %-9s %10.3f %12d %12.2f\n" e.id e.status
           e.wall_s e.events_executed
           (e.allocated_bytes /. 1048576.0)))
    t.experiments;
  let held, violated, failed = count_status t.experiments in
  Buffer.add_string buf
    (Printf.sprintf "\n%d experiments: %d held, %d violated, %d failed\n"
       (List.length t.experiments) held violated failed);
  (match t.pool with
  | None -> ()
  | Some p ->
    let tasks =
      String.concat ";" (Array.to_list (Array.map string_of_int p.tasks))
    in
    let busy =
      String.concat ";"
        (Array.to_list (Array.map (Printf.sprintf "%.2f") p.busy_s))
    in
    Buffer.add_string buf
      (Printf.sprintf
         "pool: %d worker%s, tasks [%s], busy [%s]s, wall %.2fs, imbalance \
          %.1f%%\n"
         p.workers
         (if p.workers = 1 then "" else "s")
         tasks busy p.pool_wall_s
         (100.0 *. imbalance p)));
  Buffer.contents buf

(* ---------- decoding ---------- *)

let ( let* ) = Json.( let* )

let exp_of_json j =
  let* id = Json.field "id" Json.to_str j in
  let* status = Json.field "status" Json.to_str j in
  let* title = Json.field "title" Json.to_str j in
  let* detail = Json.field "detail" Json.to_str j in
  let* wall_s = Json.field "wall_s" Json.to_float j in
  let* events_executed = Json.field "events_executed" Json.to_int j in
  let* allocated_bytes = Json.field "allocated_bytes" Json.to_float j in
  match status with
  | "held" | "violated" | "failed" ->
    Ok { id; title; status; detail; wall_s; events_executed; allocated_bytes }
  | s -> Error (Printf.sprintf "experiment %s: unknown status %S" id s)

(* The other half of [metric_value_to_json]: the value back, or what is
   wrong with it. *)
let metric_value_of_json j =
  let bucket j =
    match Option.map (List.map Json.to_int) (Json.to_list j) with
    | Some [ Some i; Some n ] ->
      if i < 0 || i >= Metrics.bucket_count then
        Error (Printf.sprintf "bucket index %d outside [0, %d)" i Metrics.bucket_count)
      else if n <= 0 then
        Error (Printf.sprintf "bucket %d holds %d samples (must be > 0)" i n)
      else Ok (i, n)
    | _ -> Error "bucket is not an [index, n] pair of integers"
  in
  let rec ascending = function
    | (i, _) :: ((k, _) :: _ as rest) ->
      if i < k then ascending rest
      else Error (Printf.sprintf "bucket %d follows bucket %d" k i)
    | _ -> Ok ()
  in
  let* kind = Json.field "type" Json.to_str j in
  match kind with
  | "counter" ->
    let* n = Json.field "value" Json.to_int j in
    Ok (Metrics.Count n)
  | "gauge" ->
    let* last = Json.field "last" Json.to_float j in
    let* max_ = Json.field "max" Json.to_float j in
    let* sets = Json.field "sets" Json.to_int j in
    Ok (Metrics.Level { last; max_; sets })
  | "histogram" ->
    let* count = Json.field "count" Json.to_int j in
    let* sum = Json.field "sum" Json.to_float j in
    let* p50 = Json.field "p50" Json.to_float j in
    let* p90 = Json.field "p90" Json.to_float j in
    let* p99 = Json.field "p99" Json.to_float j in
    let* buckets = Json.field "buckets" Json.to_list j in
    let* buckets = Json.list bucket buckets in
    let* () = ascending buckets in
    let held = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
    if held <> count then
      Error (Printf.sprintf "buckets hold %d samples but count is %d" held count)
    else if not (p50 <= p90 && p90 <= p99) then
      Error (Printf.sprintf "percentiles out of order (p50 %g, p90 %g, p99 %g)" p50 p90 p99)
    else Ok (Metrics.Dist { count; sum; buckets; p50; p90; p99 })
  | k -> Error (Printf.sprintf "unknown type %S" k)

let validate json =
  let* schema = Json.field "schema" Json.to_str json in
  let* () =
    if schema = schema_tag then Ok ()
    else Error (Printf.sprintf "unknown schema %S (expected %S)" schema schema_tag)
  in
  let* _label = Json.field "label" Json.to_str json in
  let* _at = Json.field "generated_at" Json.to_float json in
  let* domains = Json.field "domains" Json.to_int json in
  let* () = if domains >= 1 then Ok () else Error "domains must be >= 1" in
  let* _wall = Json.field "wall_s" Json.to_float json in
  let* summary = Json.field "summary" Option.some json in
  let* total = Json.field "total" Json.to_int summary in
  let* held = Json.field "held" Json.to_int summary in
  let* violated = Json.field "violated" Json.to_int summary in
  let* failed = Json.field "failed" Json.to_int summary in
  let* exps = Json.field "experiments" Json.to_list json in
  let* () =
    if List.length exps = total then Ok ()
    else
      Error
        (Printf.sprintf "summary.total=%d but %d experiments listed" total
           (List.length exps))
  in
  let* exps = Json.list exp_of_json exps in
  let* () =
    if count_status exps = (held, violated, failed) then Ok ()
    else Error "summary counts do not match experiment statuses"
  in
  let* () =
    match Json.member "pool" json with
    | None -> Ok ()
    | Some p ->
      let* workers = Json.field "workers" Json.to_int p in
      let elements name extract what =
        let* xs = Json.field name Json.to_list p in
        Json.list
          (fun x ->
            match extract x with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "pool.%s: %s entry" name what))
          xs
      in
      let* tasks = elements "tasks" Json.to_int "non-integer" in
      let* busy = elements "busy_s" Json.to_float "non-number" in
      let* _ = Json.field "imbalance" Json.to_float p in
      if List.length tasks <> workers || List.length busy <> workers then
        Error "pool arrays do not match worker count"
      else if List.exists (fun n -> n < 0) tasks then
        Error "pool.tasks must be >= 0"
      else if List.fold_left ( + ) 0 tasks <> total then
        Error "pool.tasks do not sum to summary.total"
      else Ok ()
  in
  match Json.member "metrics" json with
  | None -> Ok ()
  | Some (Json.Obj metrics) ->
    Json.list
      (fun (name, v) ->
        Result.map_error
          (fun msg -> Printf.sprintf "metrics.%s: %s" name msg)
          (metric_value_of_json v))
      metrics
    |> Result.map ignore
  | Some _ -> Error "metrics: not an object"
