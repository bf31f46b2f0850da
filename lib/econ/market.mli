(** Access-provider market: competition, switching costs, lock-in.

    The model is a Salop circular market — the workhorse model of
    competition among differentiated providers — extended with consumer
    switching costs, which is exactly the lever of the paper's
    provider-lock-in tussle (§V-A1): provider-based addressing makes
    renumbering (= switching) costly; portable addressing / DHCP +
    dynamic DNS make it cheap.

    Consumers sit on a unit circle (taste/location); each provider sits
    at a point and posts a price.  A consumer's per-period utility from
    provider [j] is

    [wtp - price_j - transport_cost * distance(c, j) - (switching_cost
    if j differs from the current provider)]

    and the outside option is 0.  Each period every provider
    best-responds on a price grid to the others' current prices
    (anticipating consumer choice), then consumers re-choose.  With
    symmetric providers and zero switching cost this converges near the
    textbook Salop equilibrium [price = cost + transport_cost / n]; with
    switching costs, incumbents price up to the lock-in and churn
    dies. *)

type config = {
  n_consumers : int;
  n_providers : int;
  wtp : float;  (** reservation utility per period *)
  transport_cost : float;
  switching_cost : float;
  provider_cost : float;  (** marginal cost per subscriber-period *)
  periods : int;
  price_floor : float;
  price_ceiling : float;
  price_step : float;  (** best-response grid resolution *)
}

val default_config : config
(** 600 consumers, 4 providers, wtp 10, transport 2, no switching cost,
    cost 1, 30 periods, grid 0..10 step 0.1. *)

type result = {
  mean_price : float;  (** across providers, final period *)
  mean_markup : float;  (** mean_price - provider_cost *)
  churn_rate : float;  (** switches per consumer-period after warmup *)
  consumer_surplus : float;  (** total surplus per period, final period *)
  provider_profit : float;  (** total profit per period, final period *)
  hhi : float;  (** subscriber concentration, final period *)
  subscribed_ratio : float;  (** consumers with any provider at the end *)
  price_history : float array;  (** mean price per period *)
}

val run : Tussle_prelude.Rng.t -> config -> result
(** Simulate to the horizon.

    Layout.  The period loop is struct-of-arrays with preallocated
    scratch (int-indexed consumers/providers, a flat m x n utility-base
    matrix, a demand histogram over the price grid) with float-typed
    compares throughout, so it allocates nothing.  Consumers are held
    sorted by position: the draws are counting-sorted once per run
    into [min n 4096] buckets, so neighbouring slots have
    neighbouring utilities and the per-consumer branches run in long
    predictable stretches.  The base matrix is built once; after that
    only the m entries of a consumer whose subscription changed are
    rewritten.

    Order independence.  Sorting changes no result bit: every pass
    over consumers is a per-consumer maximum, an integer histogram or
    an integer count, none of which depends on the order consumers are
    visited in, and the only order-sensitive values, the float sums
    [consumer_surplus] and [provider_profit], are taken once after the
    loop in draw order (the positions are drawn again from a copy of
    the generator to recover it).  [rng] advances by exactly
    [n_consumers] [float] draws, as it always has.

    Allocation.  A run allocates once up front: the m x n base, five
    n-sized arrays (positions and subscriptions by slot, three scratch
    that also carry the sort), small grid-, m- and period-sized ones
    and the result: about (m + 5) * n words in all, nothing per
    period.  10^5-10^6 consumers are practical.  Initial prices are
    snapped to the nearest grid point (the textbook Salop anchor is
    generally off-grid) and every posted price is a [price_grid]
    member.

    Raises [Invalid_argument] on nonsensical configs: no consumers,
    providers or periods, a non-finite float field, a non-positive
    step, an empty grid or one with more points than an array can
    hold, a negative cost. *)

val price_grid : config -> float array
(** The best-response price grid: [price_floor] upward in [price_step]
    increments, with the last element pinned to [price_ceiling] exactly
    (for steps that do not divide the span the final interval is
    shorter than [price_step]).  Validated configs always yield a
    non-empty, sorted grid whose first element is [price_floor]. *)

val salop_price : config -> float
(** The textbook benchmark [provider_cost +. transport_cost /.
    n_providers] for comparison with simulated outcomes. *)

val summary : config -> result -> string
(** What [tussle market] prints: price (beside {!salop_price}), markup,
    churn, surplus, profit and HHI, one per line. *)
