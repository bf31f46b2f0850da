module Rng = Tussle_prelude.Rng
module Flight = Tussle_obs.Flight

type behaviour = Compliant | Aggressive

type status = Active | Completed | Abandoned

type retry = { jitter : Rng.t; budget : int }

let retry ~jitter ~budget =
  if budget < 1 then invalid_arg "Transport.retry: budget < 1";
  { jitter; budget }

(* the window starts at [initial_window] and grows by [increase] per
   RTT; an ACK arrives [ack_delay] after its delivery and a loss is
   acted on [loss_timeout] after it happens.  Under a retry policy the
   k-th retransmission waits [loss_timeout *. rto_backoff ^ k], capped
   at [rto_max], times a uniform factor in [1 ± rto_jitter]. *)
let initial_window = 1.0
let increase = 1.0
let ack_delay = 0.002
let loss_timeout = 10.0 *. ack_delay
let rto_backoff = 2.0
let rto_max = 2.0
let rto_jitter = 0.1

type t = {
  behaviour : behaviour;
  engine : Engine.t;
  net : Net.t;
  gen : Traffic.t;
  src : int;
  dst : int;
  total : int;
  retry : retry option;
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
  started : float;
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
    Packet.make ~id:(Traffic.fresh_id t.gen) ~src:t.src ~dst:t.dst
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
    t.outstanding <- t.outstanding - 1
  end;
  t.cwnd <- t.cwnd +. (increase /. Float.max 1.0 t.cwnd);
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
    (match t.behaviour with
    | Compliant -> t.cwnd <- Float.max 1.0 (t.cwnd /. 2.0)
    | Aggressive -> ());
    if not (Hashtbl.mem t.acked_seqs seq) then begin
      let tried = retries_of t seq in
      match t.retry with
      | Some r when tried >= r.budget -> give_up t
      | Some _ | None ->
        Hashtbl.replace t.retry_count seq (tried + 1);
        t.pending_retransmit <- t.pending_retransmit @ [ seq ];
        fill_window t
    end
    else fill_window t
  end

(* Retransmission timer for this seq's next attempt.  Without a retry
   policy it is the fixed [loss_timeout] and draws nothing from any
   rng; with one it grows exponentially with the seq's retries, capped,
   with one seeded jitter draw. *)
let rto t seq =
  match t.retry with
  | None -> loss_timeout
  | Some r ->
    let tried = retries_of t seq in
    let backed =
      if tried = 0 then loss_timeout
      else Float.min rto_max (loss_timeout *. (rto_backoff ** float_of_int tried))
    in
    backed *. (1.0 +. (rto_jitter *. Rng.uniform r.jitter (-1.0) 1.0))

let observer t (p : Packet.t) outcome =
  match Hashtbl.find_opt t.seq_of_packet p.Packet.id with
  | None -> () (* someone else's packet *)
  | Some seq ->
    Hashtbl.remove t.seq_of_packet p.Packet.id;
    (match outcome with
    | Net.Delivered _ ->
      (* the ACK rides back on an uncongested reverse channel *)
      Engine.schedule_after t.engine ack_delay (fun _ -> on_ack t seq)
    | Net.Lost reason ->
      (* loss detected only after the retransmission timer *)
      let wait = rto t seq in
      if Flight.enabled () then
        Flight.emit ~sim_t:(Engine.now t.engine) ~flow:t.flow ~node:seq
          ~peer:p.Packet.id
          ~detail:(Net.drop_reason_label reason)
          ~value:wait "xfer-timer";
      Engine.schedule_after t.engine wait (fun _ -> on_loss t seq))

let start ?(behaviour = Compliant) ?retry engine net gen ~src ~dst
    ~total_packets =
  if total_packets <= 0 then invalid_arg "Transport.start: nothing to send";
  let t =
    {
      behaviour;
      engine;
      net;
      gen;
      src;
      dst;
      total = total_packets;
      retry;
      cwnd = initial_window;
      next_seq = 0;
      outstanding = 0;
      seq_of_packet = Hashtbl.create 64;
      acked_seqs = Hashtbl.create 64;
      retry_count = Hashtbl.create 16;
      pending_retransmit = [];
      retransmissions = 0;
      losses = 0;
      started = Engine.now engine;
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

let abandon_time t = t.abandon_time

let acked t = Hashtbl.length t.acked_seqs

let retransmissions t = t.retransmissions

let losses t = t.losses

let goodput t ~now =
  let stop =
    match (t.finish_time, t.abandon_time) with
    | Some f, _ -> f
    | None, Some a -> a
    | None, None -> now
  in
  let elapsed = stop -. t.started in
  if elapsed <= 0.0 then 0.0 else float_of_int (acked t) /. elapsed
