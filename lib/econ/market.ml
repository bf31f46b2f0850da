module Rng = Tussle_prelude.Rng
module Stats = Tussle_prelude.Stats

type config = {
  n_consumers : int;
  n_providers : int;
  wtp : float;
  transport_cost : float;
  switching_cost : float;
  provider_cost : float;
  periods : int;
  price_floor : float;
  price_ceiling : float;
  price_step : float;
}

let default_config =
  {
    n_consumers = 600;
    n_providers = 4;
    wtp = 10.0;
    transport_cost = 2.0;
    switching_cost = 0.0;
    provider_cost = 1.0;
    periods = 30;
    price_floor = 0.0;
    price_ceiling = 10.0;
    price_step = 0.1;
  }

type result = {
  mean_price : float;
  mean_markup : float;
  churn_rate : float;
  consumer_surplus : float;
  provider_profit : float;
  hhi : float;
  subscribed_ratio : float;
  price_history : float array;
}

let validate cfg =
  if cfg.n_consumers <= 0 then invalid_arg "Market: no consumers";
  if cfg.n_providers <= 0 then invalid_arg "Market: no providers";
  if cfg.periods <= 0 then invalid_arg "Market: no periods";
  List.iter
    (fun (name, x) ->
      if not (Float.is_finite x) then invalid_arg ("Market: non-finite " ^ name))
    [
      ("wtp", cfg.wtp);
      ("transport_cost", cfg.transport_cost);
      ("switching_cost", cfg.switching_cost);
      ("provider_cost", cfg.provider_cost);
      ("price_floor", cfg.price_floor);
      ("price_ceiling", cfg.price_ceiling);
      ("price_step", cfg.price_step);
    ];
  if cfg.price_step <= 0.0 then invalid_arg "Market: non-positive price step";
  if cfg.price_ceiling < cfg.price_floor then invalid_arg "Market: empty grid";
  (* a tiny step over a wide span must not overflow [price_grid]'s
     point count (or silently wrap it to a one-point grid) *)
  if
    not
      ((cfg.price_ceiling -. cfg.price_floor) /. cfg.price_step
      < float_of_int (Sys.max_floatarray_length - 1))
  then invalid_arg "Market: price grid too large";
  if cfg.provider_cost < 0.0 || cfg.transport_cost < 0.0
     || cfg.switching_cost < 0.0
  then invalid_arg "Market: negative cost"

(* Not [Float.min]: its NaN and signed-zero handling costs a
   [caml_signbit] C call per consumer x provider x period.  Positions
   are in [0,1), so neither operand is NaN or -0.0 and the result is
   the same. *)
let[@inline] circle_distance a b =
  let d = Float.abs (a -. b) in
  let e = 1.0 -. d in
  if e < d then e else d

let price_grid cfg =
  (* Rounding (not truncating) the span/step quotient keeps awkward
     steps like 0.1 from losing the top point to float error, and the
     last element is pinned to [price_ceiling] exactly so a monopolist
     facing slack WTP can actually post the ceiling.  For steps that do
     not divide the span the final interval is shorter than [step];
     every interior point stays strictly below the ceiling because
     [count <= span/step + 1/2] implies [floor + (count-1)*step < ceiling]. *)
  let count =
    int_of_float
      (Float.round ((cfg.price_ceiling -. cfg.price_floor) /. cfg.price_step))
  in
  let count = if count < 0 then 0 else count in
  Array.init (count + 1) (fun i ->
      if i = count then cfg.price_ceiling
      else cfg.price_floor +. (float_of_int i *. cfg.price_step))

let nearest_grid_index cfg ~grid_len p =
  let i =
    int_of_float (Float.round ((p -. cfg.price_floor) /. cfg.price_step))
  in
  if i < 0 then 0 else if i > grid_len - 1 then grid_len - 1 else i

let salop_price cfg =
  cfg.provider_cost +. (cfg.transport_cost /. float_of_int cfg.n_providers)

(* Largest grid index whose price is strictly below [t] ([-1] when
   none).  [est] is a closed-form estimate from the uniform spacing;
   the bounded fix-up loops make the answer exact against the actual
   grid values from any start (the last point is pinned to the
   ceiling, and float rounding can push the estimate off by one), so
   the estimate may be a plain truncation rather than a [Float.ceil]
   C call.

   The [float] annotations are load-bearing.  Left generic in [grid],
   [<]/[>=] compile to the polymorphic [caml_lessthan]/
   [caml_greaterequal] C calls, which box both operands: without
   flambda that is an allocation per consumer x provider x period,
   inlined or not. *)
let[@inline] last_lt (grid : float array) g est (t : float) =
  let i = ref (if est < -1 then -1 else if est > g - 1 then g - 1 else est) in
  while !i + 1 < g && Array.unsafe_get grid (!i + 1) < t do
    incr i
  done;
  while !i >= 0 && Array.unsafe_get grid !i >= t do
    decr i
  done;
  !i

(* Consumers are sorted by position with a counting sort into [nb]
   buckets, bucket [int (pos * nb)], stable in draw order.
   [bucket_cursors nb pos cursor] sets [cursor.(k)] to the first slot
   of bucket [k]; [take_slot nb cursor x] then hands out the slot of
   the next drawn consumer at position [x].

   [nb] is [n] capped at 4096, so the cursors stay in L1 and the
   scatter writes run in at most 4096 sequential streams.  With [n]
   buckets at n = 10^6 the sort and the final draw-order walk were
   cache-miss bound and a 5-period run took a third longer; at
   n = 10^5 the cap changes nothing measurable, and the disorder left
   within 1/4096 of the circle costs no measurable mispredictions. *)
let buckets n = min n 4096

let[@inline] bucket nb (x : float) =
  let k = int_of_float (x *. float_of_int nb) in
  (* x < 1, but x * nb can round up to nb *)
  if k > nb - 1 then nb - 1 else k

let bucket_cursors nb (pos : float array) cursor =
  Array.fill cursor 0 nb 0;
  for i = 0 to Array.length pos - 1 do
    let k = bucket nb pos.(i) in
    cursor.(k) <- cursor.(k) + 1
  done;
  let start = ref 0 in
  for k = 0 to nb - 1 do
    let count = cursor.(k) in
    cursor.(k) <- !start;
    start := !start + count
  done

let[@inline] take_slot nb cursor x =
  let k = bucket nb x in
  let s = cursor.(k) in
  cursor.(k) <- s + 1;
  s

(* The hot path is struct-of-arrays with preallocated scratch: no
   per-consumer options, tuples or closures anywhere in the period
   loop.  A flat [base] matrix holds
   [base.(k*n + c) = wtp - transport_cost * d(c,k) - switch_pain(c,k)]
   (the price-independent part of consumer [c]'s utility from provider
   [k], given the subscriptions entering the period), so a utility is
   one load and one subtract.  It is built once and afterwards only a
   switcher's m entries are rewritten, when its subscription changes.

   Consumers are stored sorted by position (once per run), so
   neighbouring consumers have neighbouring utilities: the running
   maxima, the threshold fix-ups and the choice compares below take
   the same branch for long runs instead of at random.  The order is
   invisible in the results: every pass is a per-consumer maximum, an
   integer histogram or an integer count, and the two float sums
   (surplus and profit) are taken once, after the loop, in draw
   order.

   Best response is where the old code burned its time: re-choosing
   every consumer for every candidate price was O(n * m) per grid
   point.  Instead, for provider [j] we compute each consumer's best
   alternative [alt] among the other providers once; [c] buys from [j]
   at price [p] iff [p < base_j(c) - max(0, alt)], a price threshold
   per consumer.  Bucketing thresholds onto the grid and suffix-summing
   gives demand at *every* grid price in O(n + grid), so a full best
   response is O(n*m + grid) instead of O(n*m*grid).  (In exact
   arithmetic the threshold is the strict rule
   [base_j(c) - p > max(0, alt)]; in floats the two forms can round
   apart where the threshold lands on a grid point, which is not rare:
   a consumer whose best alternative lies beyond [j] on the same side
   has [t = transport_cost / m + p_k] plus switching pains, a lattice
   value.  The threshold form is the model's definition; the naive
   oracle in the tests evaluates it at every grid price.) *)
let run rng cfg =
  validate cfg;
  let n = cfg.n_consumers and m = cfg.n_providers in
  let wtp = cfg.wtp
  and tc = cfg.transport_cost
  and sc = cfg.switching_cost
  and cost = cfg.provider_cost in
  let grid = price_grid cfg in
  let g = Array.length grid in
  let inv_step = 1.0 /. cfg.price_step in
  let floor_p = cfg.price_floor in
  let provider_pos =
    Array.init m (fun j -> float_of_int j /. float_of_int m)
  in
  (* Anchor prices on the grid: the textbook Salop price (e.g. 1.125
     for 16 providers) is generally not a grid point, and an off-grid
     incumbent price could otherwise persist forever as the
     best-response candidate the grid cannot express. *)
  let init_idx = nearest_grid_index cfg ~grid_len:g (salop_price cfg) in
  let price_idx = Array.make m init_idx in
  let prices = Array.make m grid.(init_idx) in
  (* per run: the utility base, positions and subscriptions by slot,
     three scratch *)
  let base = Array.make (m * n) 0.0 in
  let consumer_pos = Array.make n 0.0 in
  let current = Array.make n 0 in
  let alt_u = Array.make n 0.0 in
  let best_u = Array.make n 0.0 in
  let best_j = Array.make n 0 in
  let hist = Array.make g 0 in
  let price_history = Array.make cfg.periods 0.0 in
  (* sort the consumers by position: draw into [best_u], bucket
     cursors in [current]; [redraw] replays the draws at the end *)
  let nb = buckets n in
  let redraw = Rng.copy rng in
  Rng.fill_float rng best_u 1.0;
  bucket_cursors nb best_u current;
  for i = 0 to n - 1 do
    let x = best_u.(i) in
    consumer_pos.(take_slot nb current x) <- x
  done;
  (* consumer [c]'s m base entries, given subscription [cur] *)
  let write_base c cur =
    let pos = Array.unsafe_get consumer_pos c in
    for k = 0 to m - 1 do
      let d = circle_distance pos (Array.unsafe_get provider_pos k) in
      let pain = if cur >= 0 && cur <> k then sc else 0.0 in
      Array.unsafe_set base ((k * n) + c) (wtp -. (tc *. d) -. pain)
    done
  in
  Array.fill current 0 n (-1);
  for c = 0 to n - 1 do
    write_base c (-1)
  done;
  let warmup = cfg.periods / 3 in
  let switches = ref 0 in
  let choice_periods = ref 0 in
  (* Once a period ends with no price move and no subscription move,
     every later period sees identical inputs (base depends only on
     subscriptions, best response only on base and prices), so its
     outputs are identical too: replay it for free instead of
     recomputing.  Exact memoization, not an approximation. *)
  let stable = ref false in
  for period = 0 to cfg.periods - 1 do
    if !stable then begin
      if period >= warmup then incr choice_periods;
      price_history.(period) <- price_history.(period - 1)
    end
    else begin
    (* providers best-respond in turn *)
    let price_moved = ref false in
    for j = 0 to m - 1 do
      (* best alternative utility per consumer among k <> j: the
         outside option 0 is folded in, so the scratch can seed at 0
         and a single running max suffices *)
      Array.fill alt_u 0 n 0.0;
      for k = 0 to m - 1 do
        if k <> j then begin
          let pk = Array.unsafe_get prices k in
          let off = k * n in
          for c = 0 to n - 1 do
            let u = Array.unsafe_get base (off + c) -. pk in
            if u > Array.unsafe_get alt_u c then Array.unsafe_set alt_u c u
          done
        end
      done;
      (* bucket each consumer's willingness threshold onto the grid:
         c buys from j at price p iff p < base_j(c) - max(0, alt) *)
      Array.fill hist 0 g 0;
      let offj = j * n in
      for c = 0 to n - 1 do
        let t = Array.unsafe_get base (offj + c) -. Array.unsafe_get alt_u c in
        let est = int_of_float ((t -. floor_p) *. inv_step) in
        let imax = last_lt grid g est t in
        if imax >= 0 then
          Array.unsafe_set hist imax (Array.unsafe_get hist imax + 1)
      done;
      (* suffix-sum: hist.(i) becomes demand at grid price i *)
      for i = g - 2 downto 0 do
        Array.unsafe_set hist i
          (Array.unsafe_get hist i + Array.unsafe_get hist (i + 1))
      done;
      (* scan the grid, incumbent price as the initial candidate *)
      let bi = ref price_idx.(j) in
      let bprofit = ref 0.0 in
      bprofit := float_of_int hist.(!bi) *. (grid.(!bi) -. cost);
      for i = 0 to g - 1 do
        let pr =
          float_of_int (Array.unsafe_get hist i)
          *. (Array.unsafe_get grid i -. cost)
        in
        if pr > !bprofit +. 1e-9 then begin
          bprofit := pr;
          bi := i
        end
      done;
      if !bi <> price_idx.(j) then begin
        price_moved := true;
        price_idx.(j) <- !bi;
        prices.(j) <- grid.(!bi)
      end
    done;
    (* consumers choose: fused utility/choose writing into the
       reusable best_j/best_u scratch *)
    Array.fill best_j 0 n (-1);
    for k = 0 to m - 1 do
      let pk = Array.unsafe_get prices k in
      let off = k * n in
      for c = 0 to n - 1 do
        let u = Array.unsafe_get base (off + c) -. pk in
        if
          u > 0.0
          && (Array.unsafe_get best_j c = -1 || u > Array.unsafe_get best_u c)
        then begin
          Array.unsafe_set best_u c u;
          Array.unsafe_set best_j c k
        end
      done
    done;
    (* subscriptions move; base is no longer read this period, so a
       switcher's row is rewritten for the next one *)
    let counting = period >= warmup in
    if counting then incr choice_periods;
    let subs_moved = ref false in
    for c = 0 to n - 1 do
      let bj = Array.unsafe_get best_j c in
      let cur = Array.unsafe_get current c in
      if bj <> cur then begin
        subs_moved := true;
        if counting && bj >= 0 && cur >= 0 then incr switches;
        Array.unsafe_set current c bj;
        write_base c bj
      end
    done;
    (* [Stats.mean prices], summed in the same order but without a
       boxed float per element *)
    let sum = ref 0.0 in
    for k = 0 to m - 1 do
      sum := !sum +. Array.unsafe_get prices k
    done;
    price_history.(period) <- !sum /. float_of_int m;
    stable := not (!price_moved || !subs_moved)
    end
  done;
  (* the best-response scan only ever posts grid members *)
  Array.iteri
    (fun j p ->
      assert (p = grid.(price_idx.(j)));
      assert (p >= cfg.price_floor && p <= cfg.price_ceiling))
    prices;
  (* Final-period tallies.  [current] is the last computed period's
     choice and [best_u] its utilities (a replayed period changes
     neither).  The float sums run in draw order: the positions are
     drawn again from [redraw] and walked through the same bucket
     cursors, rebuilt in [best_j], to find each drawn consumer's slot. *)
  Rng.fill_float redraw alt_u 1.0;
  bucket_cursors nb alt_u best_j;
  let subs = Array.make m 0 in
  let surplus = ref 0.0 and profit = ref 0.0 in
  for i = 0 to n - 1 do
    let c = take_slot nb best_j alt_u.(i) in
    let k = current.(c) in
    if k >= 0 then begin
      subs.(k) <- subs.(k) + 1;
      surplus := !surplus +. best_u.(c);
      profit := !profit +. (prices.(k) -. cost)
    end
  done;
  let subscribed = Array.fold_left ( + ) 0 subs in
  let share_sizes =
    Array.of_list
      (List.filter
         (fun x -> x > 0.0)
         (Array.to_list (Array.map float_of_int subs)))
  in
  {
    mean_price = Stats.mean prices;
    mean_markup = Stats.mean prices -. cfg.provider_cost;
    churn_rate =
      (if !choice_periods = 0 then 0.0
       else float_of_int !switches /. float_of_int (n * !choice_periods));
    consumer_surplus = !surplus;
    provider_profit = !profit;
    hhi = (if Array.length share_sizes = 0 then 0.0 else Stats.hhi share_sizes);
    subscribed_ratio = float_of_int subscribed /. float_of_int n;
    price_history;
  }

let summary cfg r =
  Printf.sprintf
    "price      %.3f (salop benchmark %.3f)\n\
     markup     %.3f\n\
     churn      %.1f%%\n\
     surplus    %.1f\n\
     profit     %.1f\n\
     HHI        %.3f\n"
    r.mean_price (salop_price cfg) r.mean_markup (100.0 *. r.churn_rate)
    r.consumer_surplus r.provider_profit r.hhi
