(* Benchmark trends: the bench-history JSONL that `tussle trends`
   appends to, per-experiment deltas against a baseline, and the
   regression gate behind `tussle perfgate`.  Both read battery
   reports only through [Report.experiments_of_json]. *)

let ( let* ) = Json.( let* )

let history_schema = "tussle.bench-history/1"

let load file =
  let* json = Json.of_file file in
  match Report.experiments_of_json json with
  | Ok exps -> Ok (json, exps)
  | Error msg -> Error (Printf.sprintf "%s: invalid battery report: %s" file msg)

let history_line json (exps : Report.exp list) =
  let copy key = (key, Option.value ~default:Json.Null (Json.member key json)) in
  Json.Obj
    ((("schema", Json.Str history_schema)
     :: List.map copy [ "label"; "generated_at"; "domains"; "wall_s" ])
    @ [
        ( "experiments",
          Json.List
            (List.map
               (fun (e : Report.exp) ->
                 Json.Obj
                   [
                     ("id", Json.Str e.id);
                     ("wall_s", Json.Float e.wall_s);
                     ("allocated_bytes", Json.Float e.allocated_bytes);
                   ])
               exps) );
      ])

let append ~history line =
  match
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 history in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (Json.to_string ~minify:true line);
        output_char oc '\n')
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let check_history history =
  let* text = Json.read_file history in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let check i l =
    match Json.parse l with
    | Error msg -> Error (i + 1, msg)
    | Ok j when Json.member "schema" j <> Some (Json.Str history_schema) ->
      Error (i + 1, "missing bench-history schema tag")
    | Ok _ -> Ok ()
  in
  match Json.list Fun.id (List.mapi check lines) with
  | Ok _ -> Ok (List.length lines)
  | Error (lineno, msg) -> Error (Printf.sprintf "%s:%d: %s" history lineno msg)

let mb bytes = bytes /. 1.048576e6

let deltas ~(base : Report.exp list) (exps : Report.exp list) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.bprintf buf fmt in
  let delta b c = if b > 0.0 then 100.0 *. (c -. b) /. b else 0.0 in
  add "%-5s %12s %12s %8s %12s %12s %8s\n" "id" "wall_base" "wall_now" "d%"
    "alloc_base" "alloc_now" "d%";
  List.iter
    (fun (e : Report.exp) ->
      match List.find_opt (fun (b : Report.exp) -> b.id = e.id) base with
      | None ->
        add "%-5s %12s %12.3f %8s %12s %12.1f %8s\n" e.id "-" e.wall_s "new" "-"
          (mb e.allocated_bytes) "new"
      | Some b ->
        add "%-5s %11.3fs %11.3fs %+7.1f%% %10.1fMB %10.1fMB %+7.1f%%\n" e.id
          b.wall_s e.wall_s (delta b.wall_s e.wall_s) (mb b.allocated_bytes)
          (mb e.allocated_bytes)
          (delta b.allocated_bytes e.allocated_bytes))
    exps;
  Buffer.contents buf

type verdict = Pass | Regression | Missing

let gate ~tolerance ~ids ~(base : Report.exp list) (exps : Report.exp list) =
  let buf = Buffer.create 256 in
  let find id = List.find_opt (fun (e : Report.exp) -> e.id = id) in
  let verdict =
    List.fold_left
      (fun verdict id ->
        match (find id base, find id exps) with
        | None, _ ->
          Printf.bprintf buf "  %-4s MISSING in baseline\n" id;
          Missing
        | _, None ->
          Printf.bprintf buf "  %-4s MISSING in report\n" id;
          Missing
        | Some b, Some c ->
          let check metric base cand fmt verdict =
            (* a zero baseline gates nothing: any positive value would
               be an infinite ratio *)
            let limit = base *. (1.0 +. tolerance) in
            let bad = base > 0.0 && cand > limit in
            Printf.bprintf buf "  %-4s %-15s %s -> %s (limit %s)%s\n" id metric
              (fmt base) (fmt cand) (fmt limit)
              (if bad then "  REGRESSION" else "");
            if bad && verdict = Pass then Regression else verdict
          in
          verdict
          |> check "wall_s" b.wall_s c.wall_s (Printf.sprintf "%.3fs")
          |> check "allocated_bytes" b.allocated_bytes c.allocated_bytes
               (fun x -> Printf.sprintf "%.1fMB" (mb x)))
      Pass ids
  in
  (Buffer.contents buf, verdict)
