(* Per-domain values merged at export time: plain mutable cells behind
   Domain.DLS, a mutex only around registration and the fold.  Rings
   are one such value; Metrics' cells are the others. *)

type 'a local = {
  mutex : Mutex.t;
  values : 'a list ref; (* newest registered first *)
  key : 'a Domain.DLS.key;
}

let locked mutex f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let local make =
  let mutex = Mutex.create () in
  let values = ref [] in
  let register () =
    let v = make () in
    locked mutex (fun () -> values := v :: !values);
    v
  in
  { mutex; values; key = Domain.DLS.new_key register }

let here l = Domain.DLS.get l.key

let fold l f init =
  locked l.mutex (fun () -> List.fold_right (fun v acc -> f acc v) !(l.values) init)

type 'a ring = {
  buf : 'a option array;
  mutable next : int; (* slot for the next write *)
  mutable written : int; (* total pushed since last reset *)
}

type 'a t = {
  flag : bool Atomic.t;
  rings : 'a ring local;
  compare : 'a -> 'a -> int;
}

let capacity = 65536

let create ~compare =
  {
    flag = Atomic.make false;
    rings = local (fun () -> { buf = Array.make capacity None; next = 0; written = 0 });
    compare;
  }

let flag t = t.flag

let enable t = Atomic.set t.flag true

let disable t = Atomic.set t.flag false

let pushed t = (here t.rings).written

let push t ev =
  let r = here t.rings in
  r.buf.(r.next) <- Some ev;
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.written <- r.written + 1

(* Slots [0, retained r) hold every event since the last reset: a
   ring is written from slot 0 and wraps only once full. *)
let retained r = min r.written (Array.length r.buf)

let reset t =
  fold t.rings
    (fun () r ->
      Array.fill r.buf 0 (retained r) None;
      r.next <- 0;
      r.written <- 0)
    ()

(* Each ring's events in slot order, prepended oldest ring first, so
   the newest-registered ring's events come first: [List.sort] is
   stable, so this order settles ties. *)
let events t =
  let collect acc r =
    let acc = ref acc in
    for i = retained r - 1 downto 0 do
      match r.buf.(i) with Some ev -> acc := ev :: !acc | None -> ()
    done;
    !acc
  in
  fold t.rings collect [] |> List.sort t.compare

let dropped t =
  fold t.rings (fun acc r -> acc + max 0 (r.written - Array.length r.buf)) 0
