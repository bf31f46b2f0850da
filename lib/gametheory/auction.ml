type bid = { bidder : int; amount : float }

type outcome = { winners : (int * float) list; revenue : float }

let validate bids name =
  if bids = [] then invalid_arg (name ^ ": no bids");
  List.iter
    (fun b -> if b.amount < 0.0 then invalid_arg (name ^ ": negative bid"))
    bids

(* sort: highest amount first, ties by lowest bidder id *)
let ranked bids =
  List.sort
    (fun a b ->
      match compare b.amount a.amount with
      | 0 -> compare a.bidder b.bidder
      | c -> c)
    bids

let first_price bids =
  validate bids "Auction.first_price";
  match ranked bids with
  | [] -> assert false
  | top :: _ ->
    { winners = [ (top.bidder, top.amount) ]; revenue = top.amount }

let second_price bids =
  validate bids "Auction.second_price";
  match ranked bids with
  | [] -> assert false
  | [ only ] -> { winners = [ (only.bidder, 0.0) ]; revenue = 0.0 }
  | top :: second :: _ ->
    { winners = [ (top.bidder, second.amount) ]; revenue = second.amount }

let utility ~auction ~valuation ~bid ~bidder ~others =
  let outcome = auction ({ bidder; amount = bid } :: others) in
  match List.assoc_opt bidder outcome.winners with
  | Some price -> valuation -. price
  | None -> 0.0

let truthful_is_dominant ~auction ~valuation ~bidder ~others ~deviations =
  let truthful = utility ~auction ~valuation ~bid:valuation ~bidder ~others in
  List.for_all
    (fun d -> truthful +. 1e-9 >= utility ~auction ~valuation ~bid:d ~bidder ~others)
    deviations
