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
  capacity : int Atomic.t;
  mutex : Mutex.t;
  rings : 'a ring list ref;
  key : 'a ring Domain.DLS.key;
  compare : 'a -> 'a -> int;
}

let locked mutex f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let create ~compare =
  let capacity = Atomic.make 65536 in
  let mutex = Mutex.create () in
  let rings = ref [] in
  let new_ring () =
    let r =
      { buf = Array.make (Atomic.get capacity) None; next = 0; written = 0 }
    in
    locked mutex (fun () -> rings := r :: !rings);
    r
  in
  {
    flag = Atomic.make false;
    capacity;
    mutex;
    rings;
    key = Domain.DLS.new_key new_ring;
    compare;
  }

let flag t = t.flag

let enable t ?capacity:(cap = 65536) () =
  Atomic.set t.capacity (max 1 cap);
  Atomic.set t.flag true

let disable t = Atomic.set t.flag false

let pushed t = (Domain.DLS.get t.key).written

let push t ev =
  let r = Domain.DLS.get t.key in
  r.buf.(r.next) <- Some ev;
  r.next <- (r.next + 1) mod Array.length r.buf;
  r.written <- r.written + 1

let reset t =
  locked t.mutex (fun () ->
      List.iter
        (fun r ->
          Array.fill r.buf 0 (Array.length r.buf) None;
          r.next <- 0;
          r.written <- 0)
        !(t.rings))

let events t =
  locked t.mutex (fun () ->
      List.concat_map
        (fun r -> Array.to_list r.buf |> List.filter_map Fun.id)
        !(t.rings))
  |> List.sort t.compare

let dropped t =
  locked t.mutex (fun () ->
      List.fold_left
        (fun acc r -> acc + max 0 (r.written - Array.length r.buf))
        0 !(t.rings))
