(* Tests for tussle.prelude: rng, stats, pqueue, graph, table. *)

module Rng = Tussle_prelude.Rng
module Stats = Tussle_prelude.Stats
module Pqueue = Tussle_prelude.Pqueue
module Graph = Tussle_prelude.Graph
module Table = Tussle_prelude.Table

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 5 in
  let xs = Array.init 20_000 (fun _ -> Rng.uniform rng 2.0 4.0) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 3" true (Float.abs (m -. 3.0) < 0.05)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 1 in
  Alcotest.(check bool) "p=0 false" false (Rng.bernoulli rng 0.0);
  Alcotest.(check bool) "p=1 true" true (Rng.bernoulli rng 1.0)

let test_rng_bernoulli_rate () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.03)

let test_rng_choice () =
  let rng = Rng.create 29 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let c = Rng.choice rng arr in
    Alcotest.(check bool) "member" true (Array.exists (String.equal c) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Rng.choice rng [||]))

let test_rng_weighted_index () =
  let rng = Rng.create 31 in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Rng.weighted_index rng [| 1.0; 0.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  Alcotest.(check bool) "3:1 ratio approx" true
    (float_of_int counts.(2) /. float_of_int counts.(0) > 2.0)

let test_rng_sample_distinct () =
  let rng = Rng.create 41 in
  let arr = Array.init 20 Fun.id in
  let s = Rng.sample rng 10 arr in
  Alcotest.(check int) "size" 10 (Array.length s);
  let uniq = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length uniq)

let test_rng_split_independent () =
  let a = Rng.create 43 in
  let b = Rng.split a in
  (* drawing from b must not change a's future relative to a clone *)
  let a' = Rng.copy a in
  ignore (Rng.int64 b);
  Alcotest.(check int64) "split independent" (Rng.int64 a') (Rng.int64 a)

(* Regression pin: an exact draw sequence for a fixed seed.  It fails
   if the number or order of uniform draws inside the sampler ever
   changes. *)

let test_rng_weighted_index_pinned () =
  let rng = Rng.create 7 in
  let w = [| 1.0; 2.0; 3.0 |] in
  let drawn = List.init 12 (fun _ -> Rng.weighted_index rng w) in
  Alcotest.(check (list int)) "pinned indices"
    [ 2; 1; 2; 2; 2; 1; 1; 2; 2; 0; 2; 1 ] drawn

let test_rng_weighted_zero_tail () =
  let rng = Rng.create 57 in
  for _ = 1 to 10_000 do
    let i = Rng.weighted_index rng [| 2.0; 1.0; 0.0 |] in
    Alcotest.(check bool) "trailing zero weight never drawn" true (i < 2)
  done;
  for _ = 1 to 100 do
    Alcotest.(check int) "only positive index" 1
      (Rng.weighted_index rng [| 0.0; 5.0; 0.0 |])
  done

(* The boxed-record SplitMix64 that the unboxed [Rng] replaced, kept
   verbatim as an oracle: the property below drives both through the
   same random interleaving of every draw function, [split] and [copy]
   included, and they must agree draw for draw. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let create seed = { state = mix64 (Int64.of_int seed) }

  let int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t = { state = int64 t }
  let copy t = { state = t.state }
  let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

  let int t n =
    if n <= 0 then invalid_arg "Rng.int: bound must be positive";
    let rec draw () =
      let r = bits t in
      let v = r mod n in
      if r - v > max_int - n + 1 then draw () else v
    in
    draw ()

  let float t x =
    let r = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
    x *. (r /. 9007199254740992.0)

  let uniform t lo hi = lo +. float t (hi -. lo)

  let bernoulli t p =
    if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p

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
    let total =
      Array.fold_left
        (fun acc x ->
          if x < 0.0 then invalid_arg "Rng.weighted_index: negative weight"
          else acc +. x)
        0.0 w
    in
    if total <= 0.0 then invalid_arg "Rng.weighted_index: zero total weight";
    let target = float t total in
    let rec scan i acc last_pos =
      if i = n then last_pos
      else
        let acc = acc +. w.(i) in
        let last_pos = if w.(i) > 0.0 then i else last_pos in
        if target < acc then last_pos else scan (i + 1) acc last_pos
    in
    scan 0 0.0 (-1)

  let sample t k arr =
    let n = Array.length arr in
    if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
    let pool = Array.copy arr in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = pool.(i) in
      pool.(i) <- pool.(j);
      pool.(j) <- tmp
    done;
    Array.sub pool 0 k
end

type draw =
  | D_int64
  | D_bits
  | D_int of int
  | D_float of float
  | D_uniform of float * float
  | D_bernoulli of float
  | D_choice of int
  | D_choice_list of int
  | D_weighted of float list
  | D_sample of int * int
  | D_split
  | D_copy

(* One interleaving step: draw from generator [i] (mod the pool size)
   of a pool that [D_split]/[D_copy] grow, and render the result
   exactly ([%h] for floats). *)
(* Spelled out: [module type of Rng] would fix [t] to [Rng.t]. *)
module type RNG = sig
  type t

  val create : int -> t
  val split : t -> t
  val copy : t -> t
  val int64 : t -> int64
  val bits : t -> int
  val int : t -> int -> int
  val float : t -> float -> float
  val uniform : t -> float -> float -> float
  val bernoulli : t -> float -> bool
  val choice : t -> 'a array -> 'a
  val choice_list : t -> 'a list -> 'a
  val weighted_index : t -> float array -> int
  val sample : t -> int -> 'a array -> 'a array
end

module Drive (R : RNG) = struct
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))
  let iota n = Array.init n Fun.id

  let step pool (i, d) =
    let g = !pool.(i mod Array.length !pool) in
    let grow g' = pool := Array.append !pool [| g' |] in
    match d with
    | D_int64 -> Int64.to_string (R.int64 g)
    | D_bits -> string_of_int (R.bits g)
    | D_int n -> string_of_int (R.int g n)
    | D_float x -> Printf.sprintf "%h" (R.float g x)
    | D_uniform (lo, hi) -> Printf.sprintf "%h" (R.uniform g lo hi)
    | D_bernoulli p -> string_of_bool (R.bernoulli g p)
    | D_choice n -> string_of_int (R.choice g (iota n))
    | D_choice_list n -> string_of_int (R.choice_list g (List.init n Fun.id))
    | D_weighted w -> string_of_int (R.weighted_index g (Array.of_list w))
    | D_sample (k, n) -> ints (R.sample g k (iota n))
    | D_split -> grow (R.split g); "split"
    | D_copy -> grow (R.copy g); "copy"

  let run seed ops =
    let pool = ref [| R.create seed |] in
    List.map (step pool) ops
end

module Drive_unboxed = Drive (Rng)
module Drive_boxed = Drive (Boxed_rng)

let draw_gen =
  QCheck2.Gen.(
    (* bounds past max_int / 2 make [int]'s rejection loop redraw often *)
    let bound =
      oneof [ int_range 1 1000; map (fun k -> (max_int / 2) + 1 + k) (int_bound 1000) ]
    in
    let weights =
      list_size (int_range 1 6) (oneof [ return 0.0; float_bound_inclusive 5.0 ])
      >|= fun w -> if List.for_all (( = ) 0.0) w then 1.0 :: w else w
    in
    oneof
      [
        return D_int64; return D_bits; map (fun n -> D_int n) bound;
        map (fun x -> D_float x) (float_range (-5.0) 5.0);
        map2 (fun lo hi -> D_uniform (lo, hi)) (float_range (-5.0) 5.0)
          (float_range (-5.0) 5.0);
        map (fun p -> D_bernoulli p) (oneof [ float_range (-0.5) 1.5; float_bound_inclusive 1.0 ]);
        map (fun n -> D_choice n) (int_range 1 20);
        map (fun n -> D_choice_list n) (int_range 1 20);
        map (fun w -> D_weighted w) weights;
        map2 (fun n k -> D_sample (k mod (n + 1), n)) (int_range 0 20) nat;
        return D_split; return D_copy;
      ])

let prop_rng_matches_boxed_oracle =
  QCheck2.Test.make ~name:"rng equals the boxed SplitMix64 oracle" ~count:300
    QCheck2.Gen.(pair int (list_size (int_range 0 200) (pair nat draw_gen)))
    (fun (seed, ops) -> Drive_unboxed.run seed ops = Drive_boxed.run seed ops)

(* Allocation regressions: native code only (bytecode boxes every
   int64 and float).  The counts repeat exactly, so the bound is 0. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_rng_draws_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Rng.create 99 in
    let draws name f =
      Alcotest.(check (float 0.0)) name 0.0
        (minor_words_during (fun () ->
             for _ = 1 to 100_000 do
               f ()
             done))
    in
    draws "bernoulli" (fun () -> ignore (Rng.bernoulli rng 0.3));
    draws "int" (fun () -> ignore (Rng.int rng 1000));
    draws "bits" (fun () -> ignore (Rng.bits rng))
  end

(* [fill_float] is [Array.init] over [float]: the same values in the
   same order, and the generator left in the same state. *)
let prop_fill_float_matches_float =
  QCheck2.Test.make ~name:"fill_float equals repeated float" ~count:300
    QCheck2.Gen.(triple int (int_range 0 100) (float_range (-5.0) 5.0))
    (fun (seed, len, x) ->
      let a = Rng.create seed and b = Rng.create seed in
      let filled = Array.make len nan in
      Rng.fill_float a filled x;
      let drawn = Array.init len (fun _ -> Rng.float b x) in
      Array.map Int64.bits_of_float filled = Array.map Int64.bits_of_float drawn
      && Rng.int64 a = Rng.int64 b)

let test_fill_float_allocates_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Rng.create 99 in
    let a = Array.make 100_000 0.0 in
    Alcotest.(check (float 0.0)) "10^5 draws" 0.0
      (minor_words_during (fun () -> Rng.fill_float rng a 1.0))
  end

(* ---------- Stats ---------- *)

let test_stats_mean () = check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_stats_variance () =
  check_float "variance" 2.0 (Stats.variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_stats_hhi () =
  check_float "hhi monopoly" 1.0 (Stats.hhi [| 10.0 |]);
  check_float "hhi duopoly" 0.5 (Stats.hhi [| 5.0; 5.0 |]);
  check_float "hhi 4-way" 0.25 (Stats.hhi [| 1.0; 1.0; 1.0; 1.0 |])

let test_stats_empty_raises () =
  Alcotest.check_raises "mean empty" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

(* ---------- Pqueue ---------- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 3.0 "c";
  Pqueue.push q 1.0 "a";
  Pqueue.push q 2.0 "b";
  Alcotest.(check (option (pair (float 0.0) string))) "a" (Some (1.0, "a")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "b" (Some (2.0, "b")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "c" (Some (3.0, "c")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "empty" None (Pqueue.pop q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 "first";
  Pqueue.push q 1.0 "second";
  Pqueue.push q 1.0 "third";
  let order = List.map snd (Pqueue.to_sorted_list q) in
  Alcotest.(check (list string)) "fifo among ties" [ "first"; "second"; "third" ] order

let test_pqueue_stress_sorted () =
  let rng = Rng.create 99 in
  let q = Pqueue.create () in
  for _ = 1 to 1000 do
    Pqueue.push q (Rng.float rng 100.0) ()
  done;
  let keys = List.map fst (Pqueue.to_sorted_list q) in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "drain sorted" true (sorted keys);
  Alcotest.(check int) "nondestructive" 1000 (Pqueue.length q)

let test_pqueue_pop_releases () =
  (* Regression: a popped entry used to stay reachable from the vacated
     array slot, retaining its payload until the slot was overwritten. *)
  let q = Pqueue.create () in
  let w = Weak.create 4 in
  for i = 0 to 3 do
    let payload = Bytes.make 64 'x' in
    Weak.set w i (Some payload);
    Pqueue.push q (float_of_int i) payload
  done;
  for _ = 0 to 3 do
    ignore (Pqueue.pop q)
  done;
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d collected" i)
      false (Weak.check w i)
  done

let test_pqueue_drain_after_leak_fix () =
  (* Slot clearing must not change observable behaviour: same length
     accounting, same drain order, and the queue stays reusable. *)
  let rng = Rng.create 4242 in
  let q = Pqueue.create () in
  for i = 0 to 199 do
    Pqueue.push q (Rng.float rng 10.0) i
  done;
  Alcotest.(check int) "length" 200 (Pqueue.length q);
  let rec drain last n =
    match Pqueue.pop q with
    | None -> n
    | Some (k, _) ->
      Alcotest.(check bool) "sorted" true (k >= last);
      Alcotest.(check int) "length tracks" (199 - n) (Pqueue.length q);
      drain k (n + 1)
  in
  let n = drain neg_infinity 0 in
  Alcotest.(check int) "drained all" 200 n;
  Pqueue.push q 1.0 7;
  Alcotest.(check (option (pair (float 0.0) int)))
    "reusable after drain" (Some (1.0, 7)) (Pqueue.pop q)

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Pqueue.push q 5.0 "x";
  check_float "min_key" 5.0 (Pqueue.min_key q);
  Alcotest.(check int) "min_key keeps" 1 (Pqueue.length q)

(* The queue grows past several doublings of its arrays while pops
   free slots and pushes reuse them: every pop matches the model, and
   once the depth stops growing so does the queue's footprint, so a
   popped slot is reused rather than a fresh one taken. *)
let test_pqueue_growth_recycles_slots () =
  let rng = Rng.create 77 in
  let q = Pqueue.create () and model = Pqueue_oracle.create () in
  let pushed = ref 0 in
  let push () =
    let k = float_of_int (Rng.int rng 8) in
    Pqueue.push q k !pushed;
    Pqueue_oracle.push model k !pushed;
    incr pushed
  in
  let pop () =
    Alcotest.(check (option (pair (float 0.0) int)))
      "pop matches the model" (Pqueue_oracle.pop model) (Pqueue.pop q)
  in
  (* three pushes per pop to depth 600: the arrays double from 16 to 1024 *)
  while Pqueue.length q < 600 do
    push ();
    push ();
    push ();
    pop ()
  done;
  let words () = Obj.reachable_words (Obj.repr q) in
  let grown = words () in
  for _ = 1 to 5_000 do
    push ();
    pop ()
  done;
  Alcotest.(check int) "depth held" 600 (Pqueue.length q);
  Alcotest.(check int) "footprint held" grown (words ());
  while not (Pqueue.is_empty q) do
    pop ()
  done;
  Alcotest.(check int) "model drained too" 0 (Pqueue_oracle.length model)

(* ---------- Graph ---------- *)

let test_graph_basic () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 1.0;
  Graph.add_edge g 1 2 2.0;
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "edges" 2 (Graph.edge_count g);
  Alcotest.(check (list (pair int (float 0.0)))) "succ 0" [ (1, 1.0) ] (Graph.succ g 0);
  Alcotest.(check (option (float 0.0))) "find" (Some 2.0) (Graph.find_edge g 1 2);
  Alcotest.(check (option (float 0.0))) "absent" None (Graph.find_edge g 0 2)

let test_graph_out_of_range () =
  let g = Graph.create 2 in
  Alcotest.check_raises "bad node"
    (Invalid_argument "Graph.add_edge: node out of range") (fun () ->
      Graph.add_edge g 0 5 ())

let test_graph_dijkstra_line () =
  let g = Graph.create 4 in
  Graph.add_undirected g 0 1 1.0;
  Graph.add_undirected g 1 2 1.0;
  Graph.add_undirected g 2 3 1.0;
  let dist, _ = Graph.dijkstra g ~weight:Fun.id ~source:0 in
  check_float "d3" 3.0 dist.(3);
  check_float "d0" 0.0 dist.(0)

let test_graph_dijkstra_shortcut () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 10.0;
  Graph.add_edge g 0 2 1.0;
  Graph.add_edge g 2 1 1.0;
  let dist, pred = Graph.dijkstra g ~weight:Fun.id ~source:0 in
  check_float "dist" 2.0 dist.(1);
  Alcotest.(check (list int)) "path" [ 0; 2; 1 ] [ pred.(2); pred.(1); 1 ]

let test_graph_unreachable () =
  let g = Graph.create 2 in
  let dist, pred = Graph.dijkstra g ~weight:Fun.id ~source:0 in
  check_float "infinite" infinity dist.(1);
  Alcotest.(check int) "no predecessor" (-1) pred.(1)

let test_graph_negative_weight () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1 (-1.0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Graph.dijkstra: negative weight") (fun () ->
      ignore (Graph.dijkstra g ~weight:Fun.id ~source:0))

(* Float labels stay a flat float array as the edge arrays grow past
   their first capacity, and read back unchanged in insertion order. *)
let test_graph_float_labels_grow () =
  let g = Graph.create 2 in
  let labels = List.init 40 (fun i -> float_of_int i +. 0.5) in
  List.iter (fun w -> Graph.add_edge g 0 1 w) labels;
  Alcotest.(check (list (float 0.0))) "labels" labels
    (List.map snd (Graph.succ g 0));
  Alcotest.(check (option (float 0.0))) "first" (Some 0.5) (Graph.find_edge g 0 1);
  let dist, pred = Graph.dijkstra g ~weight:Fun.id ~source:0 in
  check_float "cheapest parallel edge" 0.5 dist.(1);
  Alcotest.(check int) "pred" 0 pred.(1)

let test_graph_weights_snapshot () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 ();
  Graph.add_edge g 1 2 ();
  let seen = ref [] in
  let w = Graph.weights g (fun u v () -> seen := (u, v) :: !seen; 2.0) in
  Alcotest.(check (list (pair int int))) "iter order" [ (0, 1); (1, 2) ]
    (List.rev !seen);
  let dist, _ = Graph.dijkstra_weights g w ~source:0 in
  check_float "two hops" 4.0 dist.(2);
  Graph.add_edge g 0 2 ();
  Alcotest.check_raises "stale"
    (Invalid_argument "Graph.dijkstra_weights: weights of another graph")
    (fun () -> ignore (Graph.dijkstra_weights g w ~source:0))

(* Native only, with [Gc.minor] first so no collection falls inside
   the window.  Once a call has grown its domain's scratch, a row on a
   BA(1000, 2) graph allocates its [dist] and [pred] (n + 1 words
   each, straight into the major heap), the pair holding them and
   [Gc.counters]' own result: no boxed key and no frontier.  Uniform
   costs push only onto the run, seeded mixed ones onto the heap too. *)
let test_graph_row_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 1000 in
    let g = Tussle_netsim.Topology.barabasi_albert (Rng.create 9010) n 2 in
    let rng = Rng.create 9011 in
    List.iter
      (fun (name, cost) ->
        let w = Graph.weights g cost in
        ignore (Graph.dijkstra_weights g w ~source:0);
        Gc.minor ();
        let minor0, promoted0, major0 = Gc.counters () in
        ignore (Graph.dijkstra_weights g w ~source:0);
        let minor1, promoted1, major1 = Gc.counters () in
        let words =
          minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
        in
        let bound = float_of_int (2 * (n + 1)) +. 16.0 in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.0f words <= %.0f" name words bound)
          true (words <= bound))
      [
        ("uniform", fun _ _ e -> e.Tussle_netsim.Topology.latency);
        ("mixed", fun _ _ _ -> Rng.float rng 10.0);
      ]
  end

let test_graph_bfs_connected () =
  let g = Graph.create 4 in
  Graph.add_undirected g 0 1 ();
  Graph.add_undirected g 1 2 ();
  Alcotest.(check bool) "not connected" false (Graph.is_connected g);
  Graph.add_undirected g 2 3 ();
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_graph_map_edges () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1 2;
  let h = Graph.map_edges g (fun x -> x * 10) in
  Alcotest.(check (option int)) "mapped" (Some 20) (Graph.find_edge h 0 1)

(* ---------- Table ---------- *)

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "value" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  Alcotest.(check bool) "row count" true
    (List.length (String.split_on_char '\n' (String.trim s)) = 4)

let test_table_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "bad row"
    (Invalid_argument "Table.add_row: column count mismatch") (fun () ->
      Table.add_row t [ "only-one" ]);
  (* no [aligns]: every column right-aligned *)
  Table.add_row t [ "xyz"; "1" ];
  Alcotest.(check string) "default alignment renders" "  a  b"
    (List.hd (String.split_on_char '\n' (Table.render t)))

let test_table_fmt () =
  Alcotest.(check string) "pct" "12.5%" (Table.fmt_pct 0.125)

(* ---------- qcheck properties ---------- *)

let prop_rng_int_bounds =
  QCheck2.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck2.Gen.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_pqueue_pop_sorted =
  QCheck2.Test.make ~name:"pqueue pops in key order" ~count:200
    QCheck2.Gen.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun items ->
      let q = Pqueue.create () in
      List.iter (fun (k, v) -> Pqueue.push q k v) items;
      let rec drain prev =
        match Pqueue.pop q with
        | None -> true
        | Some (k, _) -> k >= prev && drain k
      in
      drain neg_infinity)

(* Pqueue against the stable sorted-list model in pqueue_oracle.ml
   under interleaved pushes, pops, peeks and sorted views, with keys
   from four values so most pushes tie: each pop must return the
   smallest key, earliest pushed among equals. *)
type pqueue_op = Push of int | Pop | Peek | View

let prop_pqueue_matches_model =
  QCheck2.Test.make ~name:"pqueue equals a sorted-list model" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (frequency
           [
             (6, map (fun k -> Push k) (int_range 0 3));
             (4, return Pop);
             (1, return Peek);
             (1, return View);
           ]))
    (fun ops ->
      let q = Pqueue.create () and model = Pqueue_oracle.create () in
      let pushed = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Push k ->
            Pqueue.push q (float_of_int k) !pushed;
            Pqueue_oracle.push model (float_of_int k) !pushed;
            incr pushed;
            true
          | Pop -> Pqueue.pop q = Pqueue_oracle.pop model
          | Peek -> (
            match Pqueue_oracle.to_list model with
            | [] -> Pqueue.is_empty q
            | (k, _) :: _ -> Pqueue.min_key q = k)
          | View -> Pqueue.to_sorted_list q = Pqueue_oracle.to_list model)
          && Pqueue.length q = Pqueue_oracle.length model)
        ops)

(* Small graphs, so multi-edges and unreachable nodes are common, with
   weights drawn from the cases that stress tie-breaking and masking:
   zero, a shared unit weight, infinity, and arbitrary values.  With
   [equal] every weight is 1.0, as on the unit-latency BA topologies. *)
let graph_gen =
  QCheck2.Gen.(
    let weight =
      oneof
        [ return 0.0; return 1.0; return infinity; float_bound_inclusive 10.0 ]
    in
    int_range 1 12 >>= fun n ->
    bool >>= fun equal ->
    list_size (int_range 0 40)
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) weight)
    >|= fun edges ->
    (n, List.map (fun (u, v, w) -> (u, v, if equal then 1.0 else w)) edges))

let print_graph (n, edges) =
  Printf.sprintf "n=%d %s" n
    (String.concat " "
       (List.map (fun (u, v, w) -> Printf.sprintf "%d>%d:%h" u v w) edges))

(* Both entry points, from every source: [dijkstra] with a closure
   and [dijkstra_weights] with a snapshot, which run one kernel. *)
let prop_dijkstra_matches_reference =
  QCheck2.Test.make ~name:"flat dijkstra equals the list reference" ~count:500
    ~print:print_graph graph_gen (fun (n, edges) ->
      let g = Graph.create n in
      List.iter (fun (u, v, w) -> Graph.add_edge g u v w) edges;
      let w = Graph.weights g (fun _ _ c -> c) in
      List.for_all
        (fun source ->
          let expected = Graph_oracle.dijkstra n edges ~source in
          Graph.dijkstra g ~weight:Fun.id ~source = expected
          && Graph.dijkstra_weights g w ~source = expected)
        (List.init n Fun.id))

(* [settle] is the full search stopped early.  From every source to
   every target, with one [pred] reused so each call starts from the
   last one's leftovers: the result is the target's full [dist], every
   node the search settled ([pred >= 0], or the source) has its full
   [pred], every node strictly closer than the target is settled, and
   an unreachable target leaves the whole full [pred].  A settled
   node's distance is what a search stopped at it returns.  The
   uniform-cost graphs push only onto the run, the mixed ones onto the
   heap too, with zero costs for ties. *)
let prop_settle_is_full_prefix =
  QCheck2.Test.make ~name:"stopped search agrees with the full one" ~count:300
    ~print:print_graph graph_gen (fun (n, edges) ->
      let g = Graph.create n in
      List.iter (fun (u, v, w) -> Graph.add_edge g u v w) edges;
      let w = Graph.weights g (fun _ _ c -> c) in
      let pred = Array.make n 0 and probe = Array.make n 0 in
      let nodes = List.init n Fun.id in
      List.for_all
        (fun source ->
          let dist, full = Graph.dijkstra_weights g w ~source in
          List.for_all
            (fun target ->
              let d = Graph.settle g w ~source ~target pred in
              let settled v = v = source || pred.(v) >= 0 in
              Float.equal d dist.(target)
              && (d < infinity || pred = full)
              && List.for_all
                   (fun v ->
                     if settled v then
                       pred.(v) = full.(v)
                       && Float.equal
                            (Graph.settle g w ~source ~target:v probe)
                            dist.(v)
                     else dist.(v) >= dist.(target))
                   nodes)
            nodes)
        nodes)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rng_int_bounds; prop_pqueue_pop_sorted;
      prop_pqueue_matches_model; prop_dijkstra_matches_reference;
      prop_settle_is_full_prefix;
      prop_rng_matches_boxed_oracle;
    ]

(* ---------- coverage sweep ---------- *)

let test_graph_fold_and_iter () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1 2.0;
  Graph.add_edge g 1 2 3.0;
  let total = Graph.fold_edges g ~init:0.0 ~f:(fun acc _ _ w -> acc +. w) in
  check_float "fold sums" 5.0 total;
  let count = ref 0 in
  Graph.iter_edges g (fun _ _ _ -> incr count);
  Alcotest.(check int) "iter visits" 2 !count

let test_stats_total_empty () = check_float "empty total" 0.0 (Stats.total [||])

let test_rng_choice_list () =
  let rng = Rng.create 71 in
  let v = Rng.choice_list rng [ 5 ] in
  Alcotest.(check int) "singleton" 5 v

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_different_seeds;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "choice" `Quick test_rng_choice;
          Alcotest.test_case "weighted index" `Quick test_rng_weighted_index;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "weighted index pinned" `Quick
            test_rng_weighted_index_pinned;
          Alcotest.test_case "weighted zero tail" `Quick
            test_rng_weighted_zero_tail;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
          QCheck_alcotest.to_alcotest prop_fill_float_matches_float;
          Alcotest.test_case "fill_float allocates nothing" `Quick
            test_fill_float_allocates_nothing;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "hhi" `Quick test_stats_hhi;
          Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "stress sorted" `Quick test_pqueue_stress_sorted;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
          Alcotest.test_case "pop releases payload" `Quick
            test_pqueue_pop_releases;
          Alcotest.test_case "drain after leak fix" `Quick
            test_pqueue_drain_after_leak_fix;
          Alcotest.test_case "growth recycles slots" `Quick
            test_pqueue_growth_recycles_slots;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "out of range" `Quick test_graph_out_of_range;
          Alcotest.test_case "dijkstra line" `Quick test_graph_dijkstra_line;
          Alcotest.test_case "dijkstra shortcut" `Quick test_graph_dijkstra_shortcut;
          Alcotest.test_case "unreachable" `Quick test_graph_unreachable;
          Alcotest.test_case "negative weight" `Quick test_graph_negative_weight;
          Alcotest.test_case "float labels grow" `Quick
            test_graph_float_labels_grow;
          Alcotest.test_case "weights snapshot" `Quick test_graph_weights_snapshot;
          Alcotest.test_case "row allocation" `Quick test_graph_row_allocation;
          Alcotest.test_case "bfs/connected" `Quick test_graph_bfs_connected;
          Alcotest.test_case "map edges" `Quick test_graph_map_edges;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
          Alcotest.test_case "formatters" `Quick test_table_fmt;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "graph fold/iter" `Quick test_graph_fold_and_iter;
          Alcotest.test_case "stats total empty" `Quick test_stats_total_empty;
          Alcotest.test_case "rng choice list" `Quick test_rng_choice_list;
        ] );
      ("properties", qcheck_cases);
    ]
