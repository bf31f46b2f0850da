(* Each handle is a Ring.local of its own cell, merged at report time.

   Hot path: [Ring.here] (one [Domain.DLS.get]) + a plain mutable cell
   write.  Cold paths (handle creation, a domain's first touch of a
   handle, snapshot/reset) take a lock.  The enabled flag is the only
   atomic the hot path reads. *)

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* ---------- buckets ---------- *)

let bucket_count = 64
let bucket_base = 1e-9

(* v/base = m * 2^e with m in [0.5, 1), so v is in [base*2^(e-1),
   base*2^e).  v/base >= 1 is normal, so e is its biased exponent less
   1022, read off the bits without [Float.frexp]'s boxed pair.  An
   infinite v/base has exponent bits 0x7ff and lands in bucket 0, where
   [frexp]'s exponent 0 put it. *)
let bucket_index v =
  if not (v >= bucket_base) then 0 (* negatives and NaN too *)
  else
    let biased =
      Int64.to_int
        (Int64.shift_right_logical (Int64.bits_of_float (v /. bucket_base)) 52)
      land 0x7ff
    in
    if biased = 0x7ff then 0 else min (bucket_count - 1) (biased - 1022)

let bucket_upper i = bucket_base *. Float.ldexp 1.0 i

(* ---------- handles: one cell per domain, interned by name ---------- *)

type count_cell = { mutable n : int }

(* [sets = 0] is an unset cell: its [last] and [max_] are not read. *)
type gauge_cell = { mutable last : float; mutable max_ : float; mutable sets : int }

(* [sum] sits in a float-only record, stored flat, so adding to it
   boxes nothing. *)
type hist_sum = { mutable sum : float }

type hist_cell = { counts : int array; mutable count : int; total : hist_sum }

type counter = count_cell Ring.local
type gauge = gauge_cell Ring.local
type histogram = hist_cell Ring.local

type handle = Counter of counter | Gauge of gauge | Histogram of histogram

let registry_mutex = Mutex.create ()
let by_name : (string, handle) Hashtbl.t = Hashtbl.create 32

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* The handle named [name], made by [make] if there is none. *)
let define name make =
  locked (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some h -> h
      | None ->
        let h = make () in
        Hashtbl.add by_name name h;
        h)

let clash name =
  invalid_arg (Printf.sprintf "Metrics: %S already defined with another kind" name)

let counter name =
  match define name (fun () -> Counter (Ring.local (fun () -> { n = 0 }))) with
  | Counter c -> c
  | _ -> clash name

let gauge name =
  match
    define name (fun () ->
        Gauge (Ring.local (fun () -> { last = 0.0; max_ = 0.0; sets = 0 })))
  with
  | Gauge g -> g
  | _ -> clash name

let histogram name =
  match
    define name (fun () ->
        Histogram
          (Ring.local (fun () ->
               { counts = Array.make bucket_count 0; count = 0; total = { sum = 0.0 } })))
  with
  | Histogram h -> h
  | _ -> clash name

let add c by =
  if enabled () then begin
    let cell = Ring.here c in
    cell.n <- cell.n + by
  end

let incr c = add c 1

let local_count c = (Ring.here c).n

let set g v =
  if enabled () then begin
    let cell = Ring.here g in
    cell.last <- v;
    if cell.sets = 0 || v > cell.max_ then cell.max_ <- v;
    cell.sets <- cell.sets + 1
  end

let observe h v =
  if enabled () then begin
    let cell = Ring.here h in
    let b = bucket_index v in
    cell.counts.(b) <- cell.counts.(b) + 1;
    cell.count <- cell.count + 1;
    cell.total.sum <- cell.total.sum +. v
  end

(* ---------- snapshot / reset ---------- *)

type value =
  | Count of int
  | Level of { last : float; max_ : float; sets : int }
  | Dist of {
      count : int;
      sum : float;
      buckets : (int * int) list;
      p50 : float;
      p90 : float;
      p99 : float;
    }

(* Percentile estimate from the log2 buckets: the upper bound of the
   bucket where the cumulative count first reaches q*count.  An upper
   bound (not a midpoint) so the estimate is conservative: the true
   quantile is never above it by construction. *)
let percentile_of_buckets ~count buckets q =
  if count = 0 then 0.0
  else begin
    let target = q *. float_of_int count in
    let rec go cum = function
      | [] -> 0.0
      | (i, n) :: rest ->
        let cum = cum +. float_of_int n in
        if cum >= target then bucket_upper i else go cum rest
    in
    go 0.0 buckets
  end

let value_of = function
  | Counter c -> Count (Ring.fold c (fun acc cell -> acc + cell.n) 0)
  | Gauge g ->
    (* [last] from the newest-registered domain that set the gauge *)
    let last, max_, sets =
      Ring.fold g
        (fun ((_, max_, sets) as acc) c ->
          if c.sets = 0 then acc
          else (c.last, (if c.max_ > max_ then c.max_ else max_), sets + c.sets))
        (0.0, neg_infinity, 0)
    in
    if sets = 0 then Level { last = 0.0; max_ = 0.0; sets = 0 }
    else Level { last; max_; sets }
  | Histogram h ->
    let buckets = Array.make bucket_count 0 in
    let count, sum =
      Ring.fold h
        (fun (count, sum) c ->
          Array.iteri (fun i n -> buckets.(i) <- buckets.(i) + n) c.counts;
          (count + c.count, sum +. c.total.sum))
        (0, 0.0)
    in
    let nonempty = ref [] in
    for i = bucket_count - 1 downto 0 do
      if buckets.(i) > 0 then nonempty := (i, buckets.(i)) :: !nonempty
    done;
    let pct = percentile_of_buckets ~count !nonempty in
    Dist
      {
        count;
        sum;
        buckets = !nonempty;
        p50 = pct 0.50;
        p90 = pct 0.90;
        p99 = pct 0.99;
      }

let snapshot () =
  locked (fun () ->
      Hashtbl.fold (fun name h acc -> (name, value_of h) :: acc) by_name [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset () =
  let zero = function
    | Counter c -> Ring.fold c (fun () cell -> cell.n <- 0) ()
    | Gauge g -> Ring.fold g (fun () cell -> cell.sets <- 0) ()
    | Histogram h ->
      Ring.fold h
        (fun () cell ->
          Array.fill cell.counts 0 bucket_count 0;
          cell.count <- 0;
          cell.total.sum <- 0.0)
        ()
  in
  locked (fun () -> Hashtbl.iter (fun _ h -> zero h) by_name)

let render snap =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %-10s %s\n" "metric" "kind" "value");
  Buffer.add_string buf (String.make 72 '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, v) ->
      let kind, rendered =
        match v with
        | Count n -> ("counter", string_of_int n)
        | Level { last; max_; sets } ->
          ( "gauge",
            Printf.sprintf "last=%g max=%g sets=%d" last max_ sets )
        | Dist { count; sum; p50; p90; p99; _ } ->
          ( "histogram",
            if count = 0 then "empty"
            else
              Printf.sprintf "count=%d sum=%g mean=%g p50<=%g p90<=%g p99<=%g"
                count sum
                (sum /. float_of_int count)
                p50 p90 p99 )
      in
      Buffer.add_string buf (Printf.sprintf "%-40s %-10s %s\n" name kind rendered))
    snap;
  Buffer.contents buf
