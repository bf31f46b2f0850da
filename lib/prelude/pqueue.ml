(* The heap orders payload slots; the payloads themselves sit in a slot
   store.  A push writes its payload into a free slot once and the heap
   sifts the slot number, so a sift moves only floats and ints; a pop
   clears the slot and returns it to the free stack. *)

type 'a t = {
  heap : Heap.t;
  mutable store : 'a array;
  (* free slots of [store], a stack: [free.(0 .. nfree - 1)] *)
  mutable free : int array;
  mutable nfree : int;
}

(* Placeholder written into free slots so the store never retains a
   popped value.  A free slot is never read, so the unsafe value can
   never be seen.  An immediate makes [Array.make] build a uniform
   (non-flat) array even when ['a] turns out to be [float]; all access
   is polymorphic, so the representation stays consistent. *)
let dummy : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () = { heap = Heap.create (); store = [||]; free = [||]; nfree = 0 }

let length q = q.heap.Heap.size

let is_empty q = q.heap.Heap.size = 0

(* Called when no slot is free: double the store and stack the new
   slots so the lowest is taken first. *)
let grow q =
  let cap = Array.length q.store in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let store = Array.make ncap (dummy ()) in
  Array.blit q.store 0 store 0 cap;
  q.store <- store;
  q.free <- Array.init ncap (fun i -> ncap - 1 - i);
  q.nfree <- ncap - cap

let push q key value =
  if q.nfree = 0 then grow q;
  let n = q.nfree - 1 in
  q.nfree <- n;
  let slot = q.free.(n) in
  q.store.(slot) <- value;
  Heap.push q.heap key slot

let min_key q =
  if q.heap.Heap.size = 0 then invalid_arg "Pqueue.min_key: empty queue";
  q.heap.Heap.keys.(0)

let pop_min q =
  let h = q.heap in
  if h.Heap.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let slot = h.Heap.vals.(0) in
  let v = q.store.(slot) in
  q.store.(slot) <- dummy ();
  q.free.(q.nfree) <- slot;
  q.nfree <- q.nfree + 1;
  Heap.pop h;
  v

let pop q =
  if q.heap.Heap.size = 0 then None
  else
    let key = q.heap.Heap.keys.(0) in
    Some (key, pop_min q)

let to_sorted_list q =
  let copy =
    {
      heap = Heap.copy q.heap;
      store = Array.copy q.store;
      free = Array.copy q.free;
      nfree = q.nfree;
    }
  in
  let rec drain acc =
    match pop copy with
    | None -> List.rev acc
    | Some kv -> drain (kv :: acc)
  in
  drain []
