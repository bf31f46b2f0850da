(* Fixed-size domain pool.

   Distribution is a chunked queue: the input lives in an array and an
   atomic cursor hands out chunk-sized index ranges to whichever worker
   asks next.  There are no per-worker deques and no stealing — for
   coarse-grained items (each experiment runs a whole simulation) a
   single fetch-and-add per chunk is contention-free in practice, and
   it keeps the scheduler trivially deterministic to reason about:
   results land in per-index slots, so output order is input order.

   Telemetry: when Tussle_obs is enabled, each worker counts its tasks
   and busy time into plain per-worker slots (no sharing — slot w is
   written only by worker w) and the whole map publishes a [stats]
   record via [last_stats]; each item also runs under a "pool.task"
   span when tracing.

   Budget: one domain count per process ([set_domains]), and a map
   called from inside another map's item runs inline on that item's
   domain, so nesting never multiplies domains. *)

module Metrics = Tussle_obs.Metrics
module Trace = Tussle_obs.Trace
module Clock = Tussle_obs.Clock

let domains_of_string s =
  match int_of_string_opt (String.trim s) with
  | None ->
    Error (Printf.sprintf "invalid domain count %S (expected an integer)" s)
  | Some d when d < 1 ->
    Error (Printf.sprintf "domain count must be >= 1 (got %d)" d)
  | Some d -> Ok d

let seed_of_string ~what s =
  match int_of_string_opt (String.trim s) with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "invalid %s %S (expected an integer)" what s)

let int_at_least ~what k s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= k -> Ok n
  | Some _ | None ->
    Error (Printf.sprintf "invalid %s %S (expected an integer >= %d)" what s k)

let seconds_of_string s =
  match float_of_string_opt (String.trim s) with
  | Some t when t > 0.0 && Float.is_finite t -> Ok t
  | Some _ | None ->
    Error
      (Printf.sprintf
         "invalid timeout %S (expected a positive number of seconds)" s)

let non_negative_of_string ~what s =
  match float_of_string_opt (String.trim s) with
  | Some x when x >= 0.0 && Float.is_finite x -> Ok x
  | Some _ | None ->
    Error
      (Printf.sprintf "invalid %s %S (expected a finite number >= 0)" what s)

let probability_of_string s =
  match float_of_string_opt (String.trim s) with
  | Some a when a > 0.0 && a < 1.0 -> Ok a
  | Some _ | None ->
    Error
      (Printf.sprintf
         "invalid significance level %S (expected a number strictly between \
          0 and 1)"
         s)

let backend_of_string names s =
  let b = String.trim s in
  if List.mem b names then Ok b
  else
    Error
      (Printf.sprintf "invalid backend %S (expected %s)" s
         (String.concat " or " names))

let flag name parse = function
  | None -> Ok None
  | Some s -> (
    match parse s with
    | Ok v -> Ok (Some v)
    | Error msg -> Error (name ^ ": " ^ msg))

let domains_flag ~seq domains =
  if seq then Ok (Some 1) else flag "--domains" domains_of_string domains

type stats = {
  workers : int;
  tasks : int array;
  busy_s : float array;
  wall_s : float;
}

let last_stats_slot : stats option Atomic.t = Atomic.make None
let last_stats () = Atomic.get last_stats_slot

let m_tasks = Metrics.counter "pool.tasks"
let m_maps = Metrics.counter "pool.maps"
let m_task_run = Metrics.histogram "pool.task_run_s"

(* The process-wide budget, set once by the CLI before any work runs;
   [map] reads it when the caller gives no cap. *)
let budget = Atomic.make (max 1 (min (Domain.recommended_domain_count ()) 8))
let domains () = Atomic.get budget

let set_domains n =
  if n < 1 then invalid_arg "Pool.set_domains: domains must be >= 1";
  Atomic.set budget n

(* True while this domain runs a map's items.  [split_from_parent]
   hands the flag to any domain spawned from inside an item (the
   watchdog's child), so a nested map there runs inline too. *)
let in_map = Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> false)

let map ?domains:cap f xs =
  let requested = match cap with Some d -> d | None -> domains () in
  if requested < 1 then invalid_arg "Pool.map: domains must be >= 1";
  let observing = Metrics.enabled () || Trace.enabled () in
  let input = Array.of_list xs in
  let n = Array.length input in
  let outer = Domain.DLS.get in_map in
  let workers = if outer then 1 else max 1 (min requested n) in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  (* A few chunks per worker: big enough to amortize the atomic,
     small enough that a slow chunk cannot strand the tail. *)
  let chunk = max 1 (n / (4 * workers)) in
  let wall0 = if observing then Clock.now_s () else 0.0 in
  let tasks = if observing then Array.make workers 0 else [||] in
  let busy_s = if observing then Array.make workers 0.0 else [||] in
  let run_item w i =
    (* Slot [i] is written exactly once; per-worker telemetry slots
       are private to worker [w]. *)
    results.(i) <-
      Some
        (match
           if not observing then f input.(i)
           else
             Trace.with_span ~cat:"pool"
               ~args:[ ("index", string_of_int i) ]
               "pool.task"
             @@ fun () ->
             let t0 = Clock.now_s () in
             let y = f input.(i) in
             let dt = Clock.now_s () -. t0 in
             tasks.(w) <- tasks.(w) + 1;
             busy_s.(w) <- busy_s.(w) +. dt;
             Metrics.incr m_tasks;
             Metrics.observe m_task_run dt;
             y
         with
        | y -> Ok y
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  let worker w () =
    let rec loop () =
      let start = Atomic.fetch_and_add cursor chunk in
      if start < n then begin
        let stop = min n (start + chunk) in
        for i = start to stop - 1 do
          run_item w i
        done;
        loop ()
      end
    in
    loop ()
  in
  (* Helpers are spawned after the flag is set, so they inherit it;
     worker 0 is the calling domain itself. *)
  Domain.DLS.set in_map true;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set in_map outer)
    (fun () ->
      let helpers =
        Array.init (workers - 1) (fun w -> Domain.spawn (worker (w + 1)))
      in
      worker 0 ();
      Array.iter Domain.join helpers);
  if observing then begin
    Metrics.incr m_maps;
    Atomic.set last_stats_slot
      (Some { workers; tasks; busy_s; wall_s = Clock.now_s () -. wall0 })
  end;
  (* Re-raise the earliest failure only after every domain is joined,
     so a raising item never strands a running worker. *)
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results;
  Array.to_list
    (Array.map
       (function Some (Ok y) -> y | Some (Error _) | None -> assert false)
       results)
