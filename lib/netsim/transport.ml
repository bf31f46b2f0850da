module Rng = Tussle_prelude.Rng
module Flight = Tussle_obs.Flight

type behaviour = Compliant | Aggressive

type status = Active | Completed | Abandoned

type t = {
  behaviour : behaviour;
  engine : Engine.t;
  net : Net.t;
  gen : Traffic.t;
  src : int;
  dst : int;
  total : int;
  increase : float;
  ack_delay : float;
  loss_timeout : float;
  rto_backoff : float;
  rto_max : float;
  rto_jitter : float;
  jitter_rng : Rng.t option;
  max_retries : int option;
  mutable cwnd : float;
  mutable next_seq : int; (* next data sequence number to send fresh *)
  mutable outstanding : int; (* seqs sent at least once and not yet acked *)
  (* packet id -> sequence number, for packets currently in the net *)
  seq_of_packet : (int, int) Hashtbl.t;
  acked_seqs : (int, unit) Hashtbl.t;
  (* per-seq retransmissions so far, for backoff and the give-up path *)
  retry_count : (int, int) Hashtbl.t;
  mutable pending_retransmit : int list;
  mutable retransmissions : int;
  mutable losses : int;
  mutable timeouts : int;
  mutable started : float;
  mutable last_progress : float;
  mutable finish_time : float option;
  mutable abandon_time : float option;
  (* flight-recorder flow id: a fresh negative id when the recorder is
     on at [start], [Flight.control_flow] (inert) otherwise *)
  flow : int;
}

let status t =
  if t.finish_time <> None then Completed
  else if t.abandon_time <> None then Abandoned
  else Active

(* the window bounds unacknowledged sequences (TCP's flight size), not
   packets momentarily in the network: otherwise a sender whose packets
   die quickly could pump fresh data without limit *)
let window_room t =
  t.outstanding < int_of_float (Float.max 1.0 t.cwnd)

let retries_of t seq =
  Option.value ~default:0 (Hashtbl.find_opt t.retry_count seq)

let send_seq t seq =
  let p =
    Traffic.next_packet t.gen ~src:t.src ~dst:t.dst
      ~created:(Engine.now t.engine) ()
  in
  Hashtbl.replace t.seq_of_packet p.Packet.id seq;
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now t.engine) ~flow:t.flow ~node:seq
      ~peer:p.Packet.id ~detail:""
      ~value:(float_of_int (retries_of t seq))
      "xfer-send";
  Net.inject t.net t.engine p

let rec fill_window t =
  if status t <> Active then ()
  else
    (* retransmissions first: they do not change the outstanding count *)
    match t.pending_retransmit with
    | seq :: rest ->
      t.pending_retransmit <- rest;
      t.retransmissions <- t.retransmissions + 1;
      send_seq t seq;
      fill_window t
    | [] ->
      if window_room t && t.next_seq < t.total then begin
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        t.outstanding <- t.outstanding + 1;
        send_seq t seq;
        fill_window t
      end

let on_ack t seq =
  if not (Hashtbl.mem t.acked_seqs seq) then begin
    Hashtbl.replace t.acked_seqs seq ();
    t.outstanding <- t.outstanding - 1;
    t.last_progress <- Engine.now t.engine
  end;
  t.cwnd <- t.cwnd +. (t.increase /. Float.max 1.0 t.cwnd);
  if t.abandon_time <> None then ()
  else if Hashtbl.length t.acked_seqs >= t.total && t.finish_time = None then begin
    t.finish_time <- Some (Engine.now t.engine);
    if Flight.enabled () then
      Flight.emit ~sim_t:(Engine.now t.engine) ~flow:t.flow ~node:t.src
        ~peer:t.dst ~detail:""
        ~value:(Engine.now t.engine -. t.started)
        "xfer-complete"
  end
  else fill_window t

let give_up t =
  t.abandon_time <- Some (Engine.now t.engine);
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now t.engine) ~flow:t.flow ~node:t.src
      ~peer:t.dst ~detail:"max-retries"
      ~value:(float_of_int (Hashtbl.length t.acked_seqs))
      "xfer-abandon";
  (* stop the pump: nothing further is sent, so the engine drains *)
  t.pending_retransmit <- []

let on_loss t seq =
  if status t <> Active then ()
  else begin
    t.losses <- t.losses + 1;
    t.timeouts <- t.timeouts + 1;
    (match t.behaviour with
    | Compliant -> t.cwnd <- Float.max 1.0 (t.cwnd /. 2.0)
    | Aggressive -> ());
    if not (Hashtbl.mem t.acked_seqs seq) then begin
      let tried = retries_of t seq in
      match t.max_retries with
      | Some m when tried >= m -> give_up t
      | Some _ | None ->
        Hashtbl.replace t.retry_count seq (tried + 1);
        t.pending_retransmit <- t.pending_retransmit @ [ seq ];
        fill_window t
    end
    else fill_window t
  end

(* Retransmission timer for this seq's next attempt: base timeout grown
   exponentially with its retries, capped, with optional seeded jitter.
   Defaults (backoff 1, jitter 0) reproduce the historical fixed timer
   exactly and draw nothing from any rng. *)
let rto t seq =
  let tried = retries_of t seq in
  let backed =
    if t.rto_backoff = 1.0 || tried = 0 then t.loss_timeout
    else Float.min t.rto_max (t.loss_timeout *. (t.rto_backoff ** float_of_int tried))
  in
  if t.rto_jitter > 0.0 then
    match t.jitter_rng with
    | Some rng ->
      backed *. (1.0 +. (t.rto_jitter *. Rng.uniform rng (-1.0) 1.0))
    | None -> backed
  else backed

let observer t (p : Packet.t) outcome =
  match Hashtbl.find_opt t.seq_of_packet p.Packet.id with
  | None -> () (* someone else's packet *)
  | Some seq ->
    Hashtbl.remove t.seq_of_packet p.Packet.id;
    (match outcome with
    | Net.Delivered _ ->
      (* the ACK rides back on an uncongested reverse channel *)
      ignore
        (Engine.schedule_after t.engine t.ack_delay (fun _ -> on_ack t seq))
    | Net.Lost reason ->
      (* loss detected only after the retransmission timer *)
      let wait = rto t seq in
      if Flight.enabled () then
        Flight.emit ~sim_t:(Engine.now t.engine) ~flow:t.flow ~node:seq
          ~peer:p.Packet.id
          ~detail:(Net.drop_reason_label reason)
          ~value:wait "xfer-timer";
      ignore
        (Engine.schedule_after t.engine wait (fun _ -> on_loss t seq)))

let start ?(behaviour = Compliant) ?(initial_window = 1.0) ?(increase = 1.0)
    ?(ack_delay = 0.002) ?loss_timeout ?(rto_backoff = 1.0) ?rto_max
    ?(rto_jitter = 0.0) ?jitter_rng ?max_retries engine net gen ~src ~dst
    ~total_packets =
  if total_packets <= 0 then invalid_arg "Transport.start: nothing to send";
  if initial_window < 1.0 then invalid_arg "Transport.start: window < 1";
  if ack_delay <= 0.0 then invalid_arg "Transport.start: non-positive ack delay";
  let loss_timeout = Option.value ~default:(10.0 *. ack_delay) loss_timeout in
  if loss_timeout <= 0.0 then invalid_arg "Transport.start: non-positive timeout";
  if rto_backoff < 1.0 then invalid_arg "Transport.start: backoff < 1";
  let rto_max = Option.value ~default:infinity rto_max in
  if rto_max < loss_timeout then invalid_arg "Transport.start: rto_max < timeout";
  if rto_jitter < 0.0 || rto_jitter >= 1.0 then
    invalid_arg "Transport.start: jitter outside [0,1)";
  if rto_jitter > 0.0 && jitter_rng = None then
    invalid_arg "Transport.start: jitter needs jitter_rng";
  (match max_retries with
  | Some m when m < 1 -> invalid_arg "Transport.start: max_retries < 1"
  | Some _ | None -> ());
  let t =
    {
      behaviour;
      engine;
      net;
      gen;
      src;
      dst;
      total = total_packets;
      increase;
      ack_delay;
      loss_timeout;
      rto_backoff;
      rto_max;
      rto_jitter;
      jitter_rng;
      max_retries;
      cwnd = initial_window;
      next_seq = 0;
      outstanding = 0;
      seq_of_packet = Hashtbl.create 64;
      acked_seqs = Hashtbl.create 64;
      retry_count = Hashtbl.create 16;
      pending_retransmit = [];
      retransmissions = 0;
      losses = 0;
      timeouts = 0;
      started = Engine.now engine;
      last_progress = Engine.now engine;
      finish_time = None;
      abandon_time = None;
      flow =
        (if Flight.enabled () then Flight.new_flow ()
         else Flight.control_flow);
    }
  in
  if Flight.enabled () then
    Flight.emit ~sim_t:(Engine.now engine) ~flow:t.flow ~node:src ~peer:dst
      ~detail:(match behaviour with
        | Compliant -> "compliant"
        | Aggressive -> "aggressive")
      ~value:(float_of_int total_packets)
      "xfer-start";
  Net.on_complete net (observer t);
  fill_window t;
  t

let completed t = t.finish_time <> None

let abandoned t = t.abandon_time <> None

let abandon_time t = t.abandon_time

let acked t = Hashtbl.length t.acked_seqs

let retransmissions t = t.retransmissions

let losses t = t.losses

let timeouts t = t.timeouts

let cwnd t = t.cwnd

let finish_time t = t.finish_time

let last_progress t = t.last_progress

let stalled t ~now ~idle =
  status t = Active && now -. t.last_progress >= idle

let flow t = t.flow

let goodput t ~now =
  let stop =
    match (t.finish_time, t.abandon_time) with
    | Some f, _ -> f
    | None, Some a -> a
    | None, None -> now
  in
  let elapsed = stop -. t.started in
  if elapsed <= 0.0 then 0.0 else float_of_int (acked t) /. elapsed
