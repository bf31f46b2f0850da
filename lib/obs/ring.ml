(* Per-domain rings merged at export time: plain mutable cells behind
   Domain.DLS, a mutex only around ring registration, reset and
   export. *)

type 'a ring = {
  buf : 'a option array;
  mutable next : int; (* slot for the next write *)
  mutable written : int; (* total pushed since last reset *)
}

type 'a t = {
  flag : bool Atomic.t;
  mutex : Mutex.t;
  rings : 'a ring list ref;
  key : 'a ring Domain.DLS.key;
  compare : 'a -> 'a -> int;
}

let locked mutex f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let capacity = 65536

let create ~compare =
  let mutex = Mutex.create () in
  let rings = ref [] in
  let new_ring () =
    let r = { buf = Array.make capacity None; next = 0; written = 0 } in
    locked mutex (fun () -> rings := r :: !rings);
    r
  in
  {
    flag = Atomic.make false;
    mutex;
    rings;
    key = Domain.DLS.new_key new_ring;
    compare;
  }

let flag t = t.flag

let enable t = Atomic.set t.flag true

let disable t = Atomic.set t.flag false

let pushed t = (Domain.DLS.get t.key).written

let push t ev =
  let r = Domain.DLS.get t.key in
  r.buf.(r.next) <- Some ev;
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.written <- r.written + 1

(* Slots [0, retained r) hold every event since the last reset: a
   ring is written from slot 0 and wraps only once full. *)
let retained r = min r.written (Array.length r.buf)

let reset t =
  locked t.mutex (fun () ->
      List.iter
        (fun r ->
          Array.fill r.buf 0 (retained r) None;
          r.next <- 0;
          r.written <- 0)
        !(t.rings))

(* Each ring's events in slot order, rings in registration order:
   [List.sort] is stable, so this order settles ties. *)
let events t =
  let collect acc r =
    let acc = ref acc in
    for i = retained r - 1 downto 0 do
      match r.buf.(i) with Some ev -> acc := ev :: !acc | None -> ()
    done;
    !acc
  in
  locked t.mutex (fun () -> List.fold_right (fun r acc -> collect acc r) !(t.rings) [])
  |> List.sort t.compare

let dropped t =
  locked t.mutex (fun () ->
      List.fold_left
        (fun acc r -> acc + max 0 (r.written - Array.length r.buf))
        0 !(t.rings))
