type event = {
  seq : int;
  sim_t : float;
  flow : int;
  kind : string;
  node : int;
  peer : int;
  detail : string;
  value : float;
}

let ring =
  Ring.create ~compare:(fun a b ->
      match compare a.sim_t b.sim_t with 0 -> compare a.seq b.seq | c -> c)

let enabled_flag = Ring.flag ring

(* Transfer flow ids: -2, -3, ...  (-1 is the control-plane flow, and
   non-negative ids belong to packets.)  Only drawn while enabled, so
   the disabled hot path never touches the atomic. *)
let flow_counter = Atomic.make (-2)

let control_flow = -1

let new_flow () = Atomic.fetch_and_add flow_counter (-1)

let enable ?capacity () = Ring.enable ring ?capacity ()
let disable () = Ring.disable ring
let enabled () = Atomic.get enabled_flag

let emit ~sim_t ~flow ~node ~peer ~detail ~value kind =
  if enabled () then
    Ring.push ring
      { seq = Ring.pushed ring; sim_t; flow; kind; node; peer; detail; value }

let reset () =
  Atomic.set flow_counter (-2);
  Ring.reset ring

let events () = Ring.events ring
let dropped () = Ring.dropped ring
