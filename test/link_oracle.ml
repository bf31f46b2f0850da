(* The drop-tail queue of [Tussle_netsim.Link] as it stood before its
   departures moved into a ring: a [float list], filtered on every
   offer and appended with [@].  It is the differential oracle for
   [Link.try_enqueue], [queued], [queue_length] and the fault counters
   in [test_netsim]: for the same offers, sizes and fault stream the ring
   must give the same results.  Only the transmission path and the
   fault state it reads are kept. *)

module Rng = Tussle_prelude.Rng

type t = {
  latency : float;
  bandwidth_bps : float;
  queue_capacity : int;
  mutable busy_until : float;
  mutable departures : float list;  (* oldest first *)
  mutable last_offered : float;
  mutable up : bool;
  mutable loss_prob : float;
  mutable corrupt_prob : float;
  mutable gray_loss_prob : float;
  mutable extra_latency : float;
  mutable fault_rng : Rng.t option;
  mutable fault_drops : int;
  mutable gray_drops : int;
  mutable corrupted : int;
}

let make ~queue_capacity ~latency ~bandwidth_bps =
  {
    latency;
    bandwidth_bps;
    queue_capacity;
    busy_until = 0.0;
    departures = [];
    last_offered = neg_infinity;
    up = true;
    loss_prob = 0.0;
    corrupt_prob = 0.0;
    gray_loss_prob = 0.0;
    extra_latency = 0.0;
    fault_rng = None;
    fault_drops = 0;
    gray_drops = 0;
    corrupted = 0;
  }

let reap l now = l.departures <- List.filter (fun d -> d > now) l.departures

let queued l ~now =
  reap l now;
  List.length l.departures

let queue_length l = List.length l.departures

let draw l p =
  p > 0.0
  && match l.fault_rng with Some rng -> Rng.bernoulli rng p | None -> false

let try_enqueue l ~now bytes =
  if now < l.last_offered then invalid_arg "Link_oracle: decreasing now";
  l.last_offered <- now;
  reap l now;
  if not l.up then begin
    l.fault_drops <- l.fault_drops + 1;
    `Faulted Tussle_netsim.Link.Down
  end
  else if draw l l.loss_prob then begin
    l.fault_drops <- l.fault_drops + 1;
    `Faulted Tussle_netsim.Link.Loss
  end
  else if draw l l.gray_loss_prob then begin
    l.gray_drops <- l.gray_drops + 1;
    `Faulted Tussle_netsim.Link.Gray
  end
  else if List.length l.departures >= l.queue_capacity then `Dropped
  else begin
    let start = Float.max now l.busy_until in
    let tx = float_of_int (bytes * 8) /. l.bandwidth_bps in
    let departure = start +. tx in
    l.busy_until <- departure;
    l.departures <- l.departures @ [ departure ];
    if draw l l.corrupt_prob then begin
      l.corrupted <- l.corrupted + 1;
      `Faulted Tussle_netsim.Link.Corrupt
    end
    else `Sent (departure +. l.latency +. l.extra_latency)
  end

(* ---------- the probe window, before it became an int array ---------- *)

(* Newest first, at most [window] (delivered, offered) samples. *)
let push_sample window samples s =
  List.filteri (fun i _ -> i < window - 1) samples |> List.cons s

let ratio samples =
  let delivered, offered =
    List.fold_left (fun (d, o) (s, n) -> (d + s, o + n)) (0, 0) samples
  in
  if offered = 0 then 1.0 else float_of_int delivered /. float_of_int offered

(* ---------- the link fold, before it became one stamped pass ---------- *)

(* Each distinct link object once, in first-seen edge order, deduped
   with [List.memq] over a growing list. *)
let distinct_links g =
  let seen = ref [] in
  Tussle_prelude.Graph.iter_edges g (fun _ _ l ->
      if not (List.memq l !seen) then seen := l :: !seen);
  List.rev !seen
