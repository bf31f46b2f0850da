(* In-memory span recorder for the traced run.

   A span is opened by the benchmark's own code around one call into a
   layer's public function.  Spans are kept in growable arrays and
   written out only when the run ends, so recording costs a clock read
   and a few array stores.  Counts are recorded at the same boundaries,
   against the span that was open when they were taken. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable op : int array;
  mutable stack : int list;  (* open spans, innermost first *)
  counts : (string, float) Hashtbl.t;  (* name -> sum over the run *)
  mutable count_log : (int * string * float) list;  (* span, name, value *)
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    parent = Array.make cap (-1);
    op = Array.make cap 0;
    stack = [];
    counts = Hashtbl.create 16;
    count_log = [];
  }

let grow t =
  let cap = 2 * Array.length t.name in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name "";
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.parent <- extend t.parent (-1);
  t.op <- extend t.op 0

let now = Tussle_obs.Clock.now_s

(* [span t ~op name f] runs [f ()] inside a span named [name], child of
   whichever span is open.  The span is closed even if [f] raises. *)
let span t ~op name f =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.op.(i) <- op;
  t.stack <- i :: t.stack;
  let close () =
    t.stop.(i) <- now ();
    t.stack <- List.tl t.stack
  in
  t.start.(i) <- now ();
  match f () with
  | r ->
    close ();
    r
  | exception e ->
    close ();
    raise e

let count t name v =
  let prev = Option.value ~default:0. (Hashtbl.find_opt t.counts name) in
  Hashtbl.replace t.counts name (prev +. v);
  let at = match t.stack with p :: _ -> p | [] -> -1 in
  t.count_log <- (at, name, v) :: t.count_log

let count_total t name =
  Option.value ~default:0. (Hashtbl.find_opt t.counts name)

let duration t i = t.stop.(i) -. t.start.(i)

(* Self time of every span: its duration minus the time its direct
   children cover. *)
let self_times t =
  let self = Array.init t.n (duration t) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration t i
  done;
  self

let fold_named t name f init =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    if String.equal t.name.(i) name then acc := f !acc (duration t i)
  done;
  !acc

(* Total seconds spent in spans named [name], and how many there were. *)
let total t name = fold_named t name ( +. ) 0.

let calls t name = fold_named t name (fun k _ -> k + 1) 0

(* Mean duration of one [name] span, in seconds; 0 when none ran. *)
let mean t name =
  let k = calls t name in
  if k = 0 then 0. else total t name /. float_of_int k

(* The layer a span belongs to: the part of its name before the first
   dot ("econ.market" -> "econ"). *)
let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self seconds summed by layer, in order of first appearance. *)
let self_by_layer t =
  let self = self_times t in
  let order = ref [] and sums = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let l = layer t.name.(i) in
    match Hashtbl.find_opt sums l with
    | Some s -> Hashtbl.replace sums l (s +. self.(i))
    | None ->
      order := l :: !order;
      Hashtbl.replace sums l self.(i)
  done;
  List.rev_map (fun l -> (l, Hashtbl.find sums l)) !order

(* One JSON object per line: every span, then every count. *)
let write t path =
  let self = self_times t in
  let base = if t.n > 0 then t.start.(0) else 0. in
  let us x = 1e6 *. x in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"span\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n"
          i t.name.(i) t.op.(i) t.parent.(i)
          (us (t.start.(i) -. base))
          (us (t.stop.(i) -. base))
          (us self.(i))
      done;
      List.iter
        (fun (at, name, v) ->
          Printf.fprintf oc "{\"count\":%S,\"span\":%d,\"value\":%.17g}\n"
            name at v)
        (List.rev t.count_log))
