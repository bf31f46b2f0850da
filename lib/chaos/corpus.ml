module Plan = Tussle_fault.Plan
module Search_report = Tussle_obs.Search_report

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

(* [name] is [filename] of the reproducer under some seed: [save]
   returns an existing file found under another seed. *)
let named_for ~scenario plan name =
  let prefix = scenario ^ "-" in
  let n = String.length prefix in
  match String.rindex_opt name '-' with
  | Some i when String.starts_with ~prefix name && i > n ->
    Option.fold ~none:false
      ~some:(fun seed -> filename { scenario; seed; plan } = name)
      (int_of_string_opt (String.sub name n (i - n)))
  | _ -> false

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
  | exception Sys_error msg -> Error msg
  | names ->
    Array.to_list names
    |> List.filter (fun n -> Filename.check_suffix n ".plan")
    |> List.sort compare
    |> List.map (fun n ->
           let path = Filename.concat dir n in
           (path, load path))
    |> Result.ok

(* Two entries are the same reproducer when scenario and plan text
   agree, whatever seed each was found with: the plan is what replays
   the bug, the seed is only the draw that exposed it first. *)
let find_duplicate ~dir e =
  let plan = Plan.to_string e.plan in
  match load_dir dir with
  | Error _ -> None
  | Ok entries ->
    List.find_map
      (function
        | path, Ok e'
          when e'.scenario = e.scenario && Plan.to_string e'.plan = plan ->
          Some path
        | _ -> None)
      entries

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

let check_finding (f : Search_report.finding) =
  let path = f.corpus_file and scenario = f.scenario in
  let name = Filename.basename path in
  let fail fmt = Printf.ksprintf Result.error ("%s: " ^^ fmt) scenario in
  if path = "" then Ok ()
  else
    match Plan.of_string f.minimal_plan with
    | Error e -> fail "minimal plan does not parse: %s" e
    | Ok plan when not (named_for ~scenario plan name) ->
      fail "corpus file %S is not named for its scenario and minimal plan" name
    | Ok _ when not (Sys.file_exists path) -> Ok ()
    | Ok plan -> (
      match load path with
      | Error e -> fail "corpus file %S unreadable: %s" name e
      | Ok e when e.scenario <> scenario ->
        fail "corpus file %S names scenario %S on disk" name e.scenario
      | Ok e when Plan.to_string e.plan <> Plan.to_string plan ->
        fail "corpus file %S holds a different plan on disk" name
      | Ok _ -> Ok ())

let check_findings fs =
  Tussle_obs.Json.list check_finding fs |> Result.map ignore
