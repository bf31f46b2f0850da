module Plan = Tussle_fault.Plan

type entry = { scenario : string; seed : int; plan : Plan.t }

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

(* The hash pins the filename to the plan's exact text, so re-saving
   the same reproducer is idempotent and distinct shrinks of the same
   scenario/seed never clobber each other. *)
let filename e =
  Printf.sprintf "%s-%d-%08x.plan" e.scenario e.seed
    (Hashtbl.hash (Plan.to_string e.plan) land 0xffffffff)

let to_file_string e =
  Printf.sprintf
    "# chaos regression reproducer — replayed by scripts/ci.sh\n\
     scenario: %s\n\
     seed: %d\n\
     %s"
    e.scenario e.seed (Plan.to_string e.plan)

let parse_header ~key line =
  let prefix = key ^ ":" in
  let line = String.trim line in
  if String.length line > String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then
    Some
      (String.trim
         (String.sub line (String.length prefix)
            (String.length line - String.length prefix)))
  else None

let of_file_string s =
  let lines = String.split_on_char '\n' s in
  let scenario = ref None and seed = ref None and body = Buffer.create 256 in
  List.iter
    (fun line ->
      match parse_header ~key:"scenario" line with
      | Some v -> scenario := Some v
      | None -> (
        match parse_header ~key:"seed" line with
        | Some v -> seed := Some v
        | None ->
          Buffer.add_string body line;
          Buffer.add_char body '\n'))
    lines;
  match (!scenario, !seed) with
  | None, _ -> Error "missing 'scenario:' header"
  | _, None -> Error "missing 'seed:' header"
  | Some scenario, Some seed -> (
    match int_of_string_opt seed with
    | None -> Error (Printf.sprintf "bad seed %S" seed)
    | Some seed -> (
      match Plan.of_string (Buffer.contents body) with
      | Error e -> Error e
      | Ok plan -> (
        match Plan.validate plan with
        | exception Invalid_argument m -> Error ("invalid plan: " ^ m)
        | () -> Ok { scenario; seed; plan })))

let load path = Result.bind (Tussle_obs.Json.read_file path) of_file_string

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let names = Array.to_list names in
    let plans =
      List.filter (fun n -> Filename.check_suffix n ".plan") names
    in
    List.map
      (fun n ->
        let path = Filename.concat dir n in
        (path, load path))
      (List.sort compare plans)

(* Two entries are the same reproducer when scenario and plan text
   agree, whatever seed each was found with: the plan is what replays
   the bug, the seed is only the draw that exposed it first. *)
let find_duplicate ~dir e =
  let plan = Plan.to_string e.plan in
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".plan")
    |> List.sort compare
    |> List.find_map (fun n ->
           let path = Filename.concat dir n in
           match load path with
           | Ok e' when e'.scenario = e.scenario && Plan.to_string e'.plan = plan
             ->
             Some path
           | _ -> None)

let save ~dir e =
  mkdirs dir;
  match find_duplicate ~dir e with
  | Some path -> path
  | None ->
    let path = Filename.concat dir (filename e) in
    let oc = open_out path in
    output_string oc (to_file_string e);
    close_out oc;
    path
