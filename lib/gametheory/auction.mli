(** Sealed-bid auctions: the paper's "prescriptive mechanism design"
    thread (§II-B, Vickrey 1961).

    A Vickrey (second-price) auction is the canonical tussle-free
    mechanism: truthful bidding is dominant, so the information sub-game
    has no tussle left in it.  First-price is the contrast case — bid
    shading reintroduces strategic play. *)

type bid = { bidder : int; amount : float }

type outcome = {
  winners : (int * float) list;  (** (bidder, price paid) *)
  revenue : float;
}

val first_price : bid list -> outcome
(** Highest bid wins and pays its own bid.  Ties go to the lowest bidder
    id.  Raises [Invalid_argument] on an empty list or negative bids. *)

val second_price : bid list -> outcome
(** Vickrey: highest bid wins, pays the second-highest bid (0 with a
    single bidder). *)

val truthful_is_dominant :
  auction:(bid list -> outcome) ->
  valuation:float ->
  bidder:int ->
  others:bid list ->
  deviations:float list ->
  bool
(** Utility check used by tests and the bench: does bidding [valuation]
    do at least as well as every bid in [deviations], for this bidder,
    against fixed [others]?  (True for [second_price], false in general
    for [first_price].) *)

val utility :
  auction:(bid list -> outcome) ->
  valuation:float ->
  bid:float ->
  bidder:int ->
  others:bid list ->
  float
(** The bidder's quasilinear utility (valuation - price if they win, 0
    otherwise). *)
