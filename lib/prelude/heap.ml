type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let copy h =
  {
    h with
    keys = Array.copy h.keys;
    seqs = Array.copy h.seqs;
    vals = Array.copy h.vals;
  }

let clear h =
  h.size <- 0;
  h.next_seq <- 0

(* A copy of [a] with twice the room (16 slots if empty). *)
let widen a fill =
  let len = Array.length a in
  let b = Array.make (if len = 0 then 16 else 2 * len) fill in
  Array.blit a 0 b 0 len;
  b

(* Room for an entry at [h.size]: write its value and push order there
   and return its index.  The caller writes its key, then sifts. *)
let[@inline] append h v =
  let i = h.size in
  if i = Array.length h.keys then begin
    h.keys <- widen h.keys 0.0;
    h.seqs <- widen h.seqs 0;
    h.vals <- widen h.vals 0
  end;
  h.vals.(i) <- v;
  h.seqs.(i) <- h.next_seq;
  h.next_seq <- h.next_seq + 1;
  h.size <- i + 1;
  i

(* The sifts move a hole rather than swapping: the moving entry is held
   in locals and written once where it lands.  The entry at [i] is the
   newest, so on an equal key it stays below its parent: sift-up
   compares keys alone. *)
let[@inline] sift_up h i =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let k = keys.(i) and s = seqs.(i) and v = vals.(i) in
  let hole = ref i and moving = ref true in
  while !moving && !hole > 0 do
    let p = (!hole - 1) / 2 in
    let pk = keys.(p) in
    if k < pk then begin
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

let push h key v =
  let i = append h v in
  h.keys.(i) <- key;
  sift_up h i

let push_keyed h keys v =
  let i = append h v in
  h.keys.(i) <- keys.(v);
  sift_up h i

(* The last entry fills the hole the root leaves. *)
let pop h =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let size = h.size - 1 in
  h.size <- size;
  let k = keys.(size) and s = seqs.(size) and v = vals.(size) in
  let hole = ref 0 and moving = ref (size > 0) in
  while !moving do
    let l = (2 * !hole) + 1 in
    (* the smallest of the held entry and the hole's children *)
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
  if size > 0 then begin
    keys.(!hole) <- k;
    seqs.(!hole) <- s;
    vals.(!hole) <- v
  end
