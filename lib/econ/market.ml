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
  if cfg.price_step <= 0.0 then invalid_arg "Market: non-positive price step";
  if cfg.price_ceiling < cfg.price_floor then invalid_arg "Market: empty grid";
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
   grid values (the last point is pinned to the ceiling, and float
   rounding can push the estimate off by one).

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

(* The hot path is struct-of-arrays with preallocated scratch: no
   per-consumer options, tuples or closures anywhere in the period
   loop.  Per period we build a flat [base] matrix
   [base.(k*n + c) = wtp - transport_cost * d(c,k) - switch_pain(c,k)]
   (the price-independent part of consumer [c]'s utility from provider
   [k], given the subscriptions entering the period), so a utility is
   one load and one subtract.

   Best response is where the old code burned its time: re-choosing
   every consumer for every candidate price was O(n * m) per grid
   point.  Instead, for provider [j] we compute each consumer's best
   alternative [alt] among the other providers once; [c] buys from [j]
   at price [p] iff [base_j(c) - p] strictly beats [max(0, alt)], which
   is a price threshold per consumer.  Bucketing thresholds onto the
   grid and suffix-summing gives demand at *every* grid price in
   O(n + grid), so a full best response is O(n*m + grid) instead of
   O(n*m*grid).  (At an exact float tie between [j] and an alternative
   the threshold is conservative where the choice pass breaks ties by
   provider index — a measure-zero knife edge that only shifts the
   demand estimate by the tied consumers.) *)
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
  let consumer_pos = Array.init n (fun _ -> Rng.float rng 1.0) in
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
  let current = Array.make n (-1) in
  (* scratch, allocated once per run *)
  let base = Array.make (m * n) 0.0 in
  let alt_u = Array.make n 0.0 in
  let best_u = Array.make n 0.0 in
  let best_j = Array.make n (-1) in
  let hist = Array.make g 0 in
  let last_subs = Array.make m 0 in
  let price_history = Array.make cfg.periods 0.0 in
  let acc = Array.make 2 0.0 in
  (* acc.(0) surplus, acc.(1) profit: final-period accumulators kept in
     a float array so the loop stays allocation-free (a float ref would
     box every update) *)
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
    (* price-independent utility parts, given current subscriptions *)
    for k = 0 to m - 1 do
      let ppos = Array.unsafe_get provider_pos k in
      let off = k * n in
      for c = 0 to n - 1 do
        let d = circle_distance (Array.unsafe_get consumer_pos c) ppos in
        let cur = Array.unsafe_get current c in
        let pain = if cur >= 0 && cur <> k then sc else 0.0 in
        Array.unsafe_set base (off + c) (wtp -. (tc *. d) -. pain)
      done
    done;
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
         c buys from j at price p iff base_j(c) - p > max(0, alt) *)
      Array.fill hist 0 g 0;
      let offj = j * n in
      for c = 0 to n - 1 do
        let t = Array.unsafe_get base (offj + c) -. Array.unsafe_get alt_u c in
        let est = int_of_float (Float.ceil ((t -. floor_p) *. inv_step)) - 1 in
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
       reusable best_j/best_u scratch (base is price-independent and
       still valid: subscriptions only change below) *)
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
    let counting = period >= warmup in
    if counting then incr choice_periods;
    Array.fill last_subs 0 m 0;
    acc.(0) <- 0.0;
    acc.(1) <- 0.0;
    let subs_moved = ref false in
    for c = 0 to n - 1 do
      let bj = Array.unsafe_get best_j c in
      let cur = Array.unsafe_get current c in
      if bj <> cur then begin
        subs_moved := true;
        if counting && bj >= 0 && cur >= 0 then incr switches;
        Array.unsafe_set current c bj
      end;
      if bj >= 0 then begin
        Array.unsafe_set last_subs bj (Array.unsafe_get last_subs bj + 1);
        acc.(0) <- acc.(0) +. Array.unsafe_get best_u c;
        acc.(1) <- acc.(1) +. (Array.unsafe_get prices bj -. cost)
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
  let subscribed =
    Array.fold_left (fun n c -> if c >= 0 then n + 1 else n) 0 current
  in
  let share_sizes =
    Array.of_list
      (List.filter
         (fun x -> x > 0.0)
         (Array.to_list (Array.map float_of_int last_subs)))
  in
  {
    mean_price = Stats.mean prices;
    mean_markup = Stats.mean prices -. cfg.provider_cost;
    churn_rate =
      (if !choice_periods = 0 then 0.0
       else float_of_int !switches /. float_of_int (n * !choice_periods));
    consumer_surplus = acc.(0);
    provider_profit = acc.(1);
    hhi = (if Array.length share_sizes = 0 then 0.0 else Stats.hhi share_sizes);
    subscribed_ratio = float_of_int subscribed /. float_of_int n;
    price_history;
  }
