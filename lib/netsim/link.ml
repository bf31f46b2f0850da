module Rng = Tussle_prelude.Rng

type fault = Down | Loss | Corrupt | Gray

type t = {
  latency : float;
  bandwidth_bps : float;
  queue_capacity : int;
  mutable busy_until : float;
  (* departure times of packets still queued or in service, oldest
     first: [len] of them in a ring from [head].  Departures never
     decrease, so the ones that have left are always a prefix.  The
     ring starts empty and doubles on demand up to [queue_capacity]. *)
  mutable ring : float array;
  mutable head : int;
  mutable len : int;
  (* contract: try_enqueue must be called in non-decreasing [now] order *)
  mutable last_offered : float;
  (* fault-injection state (Tussle_fault flips these via engine events) *)
  mutable up : bool;
  mutable loss_prob : float;
  mutable corrupt_prob : float;
  (* gray failure: drops data while [is_up] — the control-plane view —
     keeps reporting healthy.  Counted separately from [fault_drops] so
     the chaos ledger can prove no covert drop went unattributed. *)
  mutable gray_loss_prob : float;
  mutable extra_latency : float;
  mutable fault_rng : Rng.t option;
  mutable fault_drops : int;
  mutable gray_drops : int;
  mutable corrupted : int;
  (* the last {!fold_distinct} pass that visited this link *)
  mutable mark : int;
}

let make ?(queue_capacity = 64) ~latency ~bandwidth_bps () =
  if latency <= 0.0 then invalid_arg "Link.make: non-positive latency";
  if bandwidth_bps <= 0.0 then invalid_arg "Link.make: non-positive bandwidth";
  if queue_capacity <= 0 then invalid_arg "Link.make: non-positive capacity";
  {
    latency;
    bandwidth_bps;
    queue_capacity;
    busy_until = 0.0;
    ring = [||];
    head = 0;
    len = 0;
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
    mark = 0;
  }

let latency l = l.latency

let transmission_delay l bytes =
  float_of_int (bytes * 8) /. l.bandwidth_bps

(* Drop the departures at or before [now]: a prefix of the ring. *)
let reap l now =
  let cap = Array.length l.ring in
  while l.len > 0 && l.ring.(l.head) <= now do
    l.head <- (if l.head + 1 = cap then 0 else l.head + 1);
    l.len <- l.len - 1
  done

let queued l ~now =
  reap l now;
  l.len

(* Occupancy as of the last offered time, without another reap: cheap
   enough for the flight recorder to read right after [try_enqueue]. *)
let queue_length l = l.len

(* Append a departure; the caller has checked [len < queue_capacity].
   A full ring doubles (capped at the capacity), unwrapped from [head]. *)
let push_departure l d =
  let cap = Array.length l.ring in
  if l.len = cap then begin
    let bigger = Array.make (min l.queue_capacity (max 4 (2 * cap))) 0.0 in
    for i = 0 to l.len - 1 do
      bigger.(i) <- l.ring.((l.head + i) mod cap)
    done;
    l.ring <- bigger;
    l.head <- 0
  end;
  let cap = Array.length l.ring in
  let tail = l.head + l.len in
  l.ring.(if tail >= cap then tail - cap else tail) <- d;
  l.len <- l.len + 1

(* ---------- fault-injection state ---------- *)

let is_up l = l.up

let set_up l up = l.up <- up

let set_fault_rng l rng = l.fault_rng <- Some rng

let check_prob ~what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Link.%s: probability outside [0,1]" what)

let require_rng l ~what p =
  if p > 0.0 && l.fault_rng = None then
    invalid_arg (Printf.sprintf "Link.%s: set_fault_rng first" what)

let set_loss_prob l p =
  check_prob ~what:"set_loss_prob" p;
  require_rng l ~what:"set_loss_prob" p;
  l.loss_prob <- p

let set_corrupt_prob l p =
  check_prob ~what:"set_corrupt_prob" p;
  require_rng l ~what:"set_corrupt_prob" p;
  l.corrupt_prob <- p

let set_gray_loss_prob l p =
  check_prob ~what:"set_gray_loss_prob" p;
  require_rng l ~what:"set_gray_loss_prob" p;
  l.gray_loss_prob <- p

let set_extra_latency l x =
  if not (x >= 0.0) then invalid_arg "Link.set_extra_latency: negative";
  l.extra_latency <- x

let draw l p =
  p > 0.0
  && (match l.fault_rng with Some rng -> Rng.bernoulli rng p | None -> false)

(* A virtual data-plane probe: would a packet offered now survive the
   link's injected faults?  Draws from the caller's rng, not the fault
   stream, and touches no counters or queue state — so probing never
   perturbs the simulation's ledgers or the episode's own loss draws.
   Deliberately blind to queue occupancy: it tests the fault plane
   (down, wire loss, gray loss), not congestion. *)
let probe l rng =
  l.up
  && (not (l.loss_prob > 0.0 && Rng.bernoulli rng l.loss_prob))
  && not (l.gray_loss_prob > 0.0 && Rng.bernoulli rng l.gray_loss_prob)

(* ---------- the transmission path ---------- *)

let try_enqueue l ~now bytes =
  if now < l.last_offered then
    invalid_arg "Link.try_enqueue: decreasing now (calls must be in \
                 non-decreasing time order)";
  if bytes < 0 then invalid_arg "Link.try_enqueue: negative size";
  l.last_offered <- now;
  reap l now;
  if not l.up then begin
    l.fault_drops <- l.fault_drops + 1;
    `Faulted Down
  end
  else if draw l l.loss_prob then begin
    l.fault_drops <- l.fault_drops + 1;
    `Faulted Loss
  end
  else if draw l l.gray_loss_prob then begin
    l.gray_drops <- l.gray_drops + 1;
    `Faulted Gray
  end
  else if l.len >= l.queue_capacity then `Dropped
  else begin
    let departure = Float.max now l.busy_until +. transmission_delay l bytes in
    l.busy_until <- departure;
    push_departure l departure;
    if draw l l.corrupt_prob then begin
      (* the bits went out but arrive damaged: capacity was consumed *)
      l.corrupted <- l.corrupted + 1;
      `Faulted Corrupt
    end
    else `Sent (departure +. l.latency +. l.extra_latency)
  end

let fault_drops l = l.fault_drops

let gray_drops l = l.gray_drops

let corrupted_count l = l.corrupted

let marks = Atomic.make 0

let fold_distinct g ~init ~f =
  let m = Atomic.fetch_and_add marks 1 + 1 in
  Tussle_prelude.Graph.fold_edges g ~init ~f:(fun acc _ _ l ->
      if l.mark = m then acc
      else begin
        l.mark <- m;
        f acc l
      end)
