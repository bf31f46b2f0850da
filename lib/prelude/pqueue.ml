(* Struct-of-arrays binary heap: three parallel arrays (key, insertion
   seq, payload) instead of one boxed entry record per element.  A push
   is three array writes and allocates nothing; the old representation
   allocated a 4-word record per push, which made the queue the
   dominant allocator on dense event horizons. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Placeholder written into vacated payload slots so the heap never
   retains a popped value behind [size].  Slots at indices >= size are
   write-only, so the unsafe value can never be read.  An immediate
   makes [Array.make] build a uniform (non-flat) array even when ['a]
   turns out to be [float]; all access is polymorphic, so the
   representation stays consistent. *)
let dummy : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length q = q.size

let is_empty q = q.size = 0

let grow q =
  let cap = Array.length q.keys in
  if q.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nkeys = Array.make ncap nan in
    let nseqs = Array.make ncap (-1) in
    let nvals = Array.make ncap (dummy ()) in
    Array.blit q.keys 0 nkeys 0 q.size;
    Array.blit q.seqs 0 nseqs 0 q.size;
    Array.blit q.vals 0 nvals 0 q.size;
    q.keys <- nkeys;
    q.seqs <- nseqs;
    q.vals <- nvals
  end

(* Order: smaller key first, then earlier seq (FIFO among equal keys,
   which discrete-event simulation requires for determinism).  The
   sifts move a hole instead of swapping: the moving element is held
   in locals and written once where it lands, which halves the array
   writes (and the payload write barriers) per level. *)
let sift_up q i =
  let keys = q.keys and seqs = q.seqs and vals = q.vals in
  let k = keys.(i) and s = seqs.(i) and v = vals.(i) in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let p = (!hole - 1) / 2 in
    let pk = keys.(p) in
    if k < pk || (k = pk && s < seqs.(p)) then begin
      keys.(!hole) <- pk;
      seqs.(!hole) <- seqs.(p);
      vals.(!hole) <- vals.(p);
      hole := p
    end
    else moving := false
  done;
  keys.(!hole) <- k;
  seqs.(!hole) <- s;
  vals.(!hole) <- v

let sift_down q i =
  let keys = q.keys and seqs = q.seqs and vals = q.vals and size = q.size in
  let k = keys.(i) and s = seqs.(i) and v = vals.(i) in
  let hole = ref i and moving = ref true in
  while !moving do
    let l = (2 * !hole) + 1 in
    (* the smallest of the held element and the hole's children *)
    let c = ref !hole and ck = ref k and cs = ref s in
    if l < size then begin
      let lk = keys.(l) in
      if lk < k || (lk = k && seqs.(l) < s) then begin
        c := l;
        ck := lk;
        cs := seqs.(l)
      end
    end;
    let r = l + 1 in
    if r < size then begin
      let rk = keys.(r) in
      if rk < !ck || (rk = !ck && seqs.(r) < !cs) then c := r
    end;
    if !c = !hole then moving := false
    else begin
      keys.(!hole) <- keys.(!c);
      seqs.(!hole) <- seqs.(!c);
      vals.(!hole) <- vals.(!c);
      hole := !c
    end
  done;
  keys.(!hole) <- k;
  seqs.(!hole) <- s;
  vals.(!hole) <- v

let push q key value =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  grow q;
  let i = q.size in
  q.keys.(i) <- key;
  q.seqs.(i) <- seq;
  q.vals.(i) <- value;
  q.size <- i + 1;
  sift_up q i

let min_key q =
  if q.size = 0 then invalid_arg "Pqueue.min_key: empty queue";
  q.keys.(0)

let pop_min q =
  if q.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let v = q.vals.(0) in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then begin
    q.keys.(0) <- q.keys.(last);
    q.seqs.(0) <- q.seqs.(last);
    q.vals.(0) <- q.vals.(last);
    q.vals.(last) <- dummy ();
    sift_down q 0
  end
  else q.vals.(0) <- dummy ();
  v

let pop q =
  if q.size = 0 then None
  else
    let key = q.keys.(0) in
    Some (key, pop_min q)

let to_sorted_list q =
  let copy =
    {
      keys = Array.sub q.keys 0 q.size;
      seqs = Array.sub q.seqs 0 q.size;
      vals = Array.sub q.vals 0 q.size;
      size = q.size;
      next_seq = q.next_seq;
    }
  in
  (* Array.sub shares no structure with q's mutations below. *)
  let rec drain acc =
    match pop copy with
    | None -> List.rev acc
    | Some kv -> drain (kv :: acc)
  in
  drain []
