(* SplitMix64.  Reference: Steele, Lea & Flood, "Fast Splittable
   Pseudorandom Number Generators", OOPSLA 2014.

   The 64-bit state lives unboxed in an 8-byte [Bytes.t], read and
   written with the [%caml_bytes_get64u]/[%caml_bytes_set64u]
   primitives (native-endian, unchecked: the buffer is always 8 bytes
   and only this module touches it).  A mutable [int64] record field
   would box on every write without flambda; here, with the mixer
   inlined, an [int64] consumed at once ([bits], [float], [bernoulli],
   [int]) never leaves a register. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

(* 7919, the 1000th prime, spreads the per-index seeds apart. *)
let seed_at ~seed index = seed + (7919 * (index + 1))

let[@inline] int64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (int64 t)

let copy t = Bytes.copy t

let[@inline] bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let r = ref (bits t) in
  let v = ref (!r mod n) in
  while !r - !v > max_int - n + 1 do
    r := bits t;
    v := !r mod n
  done;
  !v

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] float t x =
  (* 53 random bits mapped to [0,1). *)
  let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  x *. (r /. 9007199254740992.0)

(* The [float array] annotation makes the store an unboxed one: with
   [float] inlined, a draw never leaves a register. *)
let fill_float t (a : float array) x =
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set a i (float t x)
  done

let uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (int64 t) 1L = 1L

let[@inline] bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

(* A uniform in (0,1): redraws the measure-zero 0.0 that [log] and
   [**] cannot take. *)
let rec nonzero t =
  let u = float t 1.0 in
  if u > 0.0 then u else nonzero t

let gaussian t ~mu ~sigma =
  (* Bind u1 before u2: [let _ and _] has unspecified evaluation order,
     which made the draw sequence compiler-dependent. *)
  let u1 = nonzero t in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0.0 then invalid_arg "Rng.exponential: rate must be positive";
  -.log (nonzero t) /. rate

let pareto t ~alpha ~x_min =
  if alpha <= 0.0 || x_min <= 0.0 then
    invalid_arg "Rng.pareto: parameters must be positive";
  x_min /. (nonzero t ** (1.0 /. alpha))

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let choice_list t l =
  match l with
  | [] -> invalid_arg "Rng.choice_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let weighted_index t w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Rng.weighted_index: empty weights";
  let total = Array.fold_left (fun acc x ->
    if x < 0.0 then invalid_arg "Rng.weighted_index: negative weight"
    else acc +. x) 0.0 w
  in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: zero total weight";
  let target = float t total in
  (* [last_pos] is the most recent positive-weight index: if float
     rounding makes the running sum fall short of [target] even at the
     end, we return it rather than defaulting to a possibly zero-weight
     [n - 1]; a zero-weight index is never returned. *)
  let rec scan i acc last_pos =
    if i = n then last_pos
    else
      let acc = acc +. w.(i) in
      let last_pos = if w.(i) > 0.0 then i else last_pos in
      if target < acc then last_pos else scan (i + 1) acc last_pos
  in
  scan 0 0.0 (-1)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle_list t l =
  let arr = Array.of_list l in
  shuffle t arr;
  Array.to_list arr

let sample t k arr =
  let n = Array.length arr in
  if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
  let pool = Array.copy arr in
  (* Partial Fisher-Yates: the first k slots end up uniformly sampled. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- tmp
  done;
  Array.sub pool 0 k
