type scheme =
  | Real_name of string
  | Role of string
  | Pseudonym of string
  | Anonymous

type principal = { id : int; presented : scheme }

let accountability = function
  | Real_name _ -> 1.0
  | Role _ -> 0.8
  | Pseudonym _ -> 0.4
  | Anonymous -> 0.0

let is_anonymous = function
  | Anonymous -> true
  | Real_name _ | Role _ | Pseudonym _ -> false

let disguised_anonymity ~claimed ~actual =
  is_anonymous actual && not (is_anonymous claimed)

type acceptance_policy = {
  min_accountability : float;
  accept_pseudonyms : bool;
}

let open_policy = { min_accountability = 0.0; accept_pseudonyms = true }

let accountable_only = { min_accountability = 0.8; accept_pseudonyms = false }

let accepts policy scheme =
  accountability scheme >= policy.min_accountability
  &&
  match scheme with
  | Pseudonym _ -> policy.accept_pseudonyms
  | Real_name _ | Role _ | Anonymous -> true
