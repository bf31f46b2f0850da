type t = { a : float array array; b : float array array }

let validate m name =
  let r = Array.length m in
  if r = 0 then invalid_arg (name ^ ": empty matrix");
  let c = Array.length m.(0) in
  if c = 0 then invalid_arg (name ^ ": empty row");
  Array.iter
    (fun row ->
      if Array.length row <> c then invalid_arg (name ^ ": ragged matrix"))
    m;
  (r, c)

let make a b =
  let ra, ca = validate a "Normal_form.make" in
  let rb, cb = validate b "Normal_form.make" in
  if ra <> rb || ca <> cb then invalid_arg "Normal_form.make: shape mismatch";
  { a = Array.map Array.copy a; b = Array.map Array.copy b }

let zero_sum a = make a (Array.map (Array.map Float.neg) a)

let rows g = Array.length g.a

let cols g = Array.length g.a.(0)

let payoff g i j =
  if i < 0 || i >= rows g || j < 0 || j >= cols g then
    invalid_arg "Normal_form.payoff: out of range";
  (g.a.(i).(j), g.b.(i).(j))

let row_matrix g = Array.map Array.copy g.a

let col_matrix g = Array.map Array.copy g.b

let argmaxes f n =
  let best = ref neg_infinity and acc = ref [] in
  for i = 0 to n - 1 do
    let v = f i in
    if v > !best +. 1e-12 then begin
      best := v;
      acc := [ i ]
    end
    else if Float.abs (v -. !best) <= 1e-12 then acc := i :: !acc
  done;
  List.rev !acc

let best_responses_row g j =
  if j < 0 || j >= cols g then invalid_arg "Normal_form.best_responses_row";
  argmaxes (fun i -> g.a.(i).(j)) (rows g)

let best_responses_col g i =
  if i < 0 || i >= rows g then invalid_arg "Normal_form.best_responses_col";
  argmaxes (fun j -> g.b.(i).(j)) (cols g)

let pure_nash g =
  let acc = ref [] in
  for i = rows g - 1 downto 0 do
    for j = cols g - 1 downto 0 do
      if List.mem i (best_responses_row g j) && List.mem j (best_responses_col g i)
      then acc := (i, j) :: !acc
    done
  done;
  !acc

let check_dist name p n =
  if Array.length p <> n then invalid_arg (name ^ ": wrong length");
  let s = Array.fold_left ( +. ) 0.0 p in
  Array.iter (fun x -> if x < -1e-9 then invalid_arg (name ^ ": negative")) p;
  if Float.abs (s -. 1.0) > 1e-6 then invalid_arg (name ^ ": not a distribution")

let expected_payoff g p q =
  check_dist "Normal_form.expected_payoff(row)" p (rows g);
  check_dist "Normal_form.expected_payoff(col)" q (cols g);
  let ea = ref 0.0 and eb = ref 0.0 in
  for i = 0 to rows g - 1 do
    for j = 0 to cols g - 1 do
      let w = p.(i) *. q.(j) in
      ea := !ea +. (w *. g.a.(i).(j));
      eb := !eb +. (w *. g.b.(i).(j))
    done
  done;
  (!ea, !eb)

(* 0 = Cooperate, 1 = Defect *)
let prisoners_dilemma =
  make [| [| 3.0; 0.0 |]; [| 5.0; 1.0 |] |] [| [| 3.0; 5.0 |]; [| 0.0; 1.0 |] |]

let matching_pennies = zero_sum [| [| 1.0; -1.0 |]; [| -1.0; 1.0 |] |]

let pure_coordination =
  make [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |]

let battle_of_sexes =
  make [| [| 2.0; 0.0 |]; [| 0.0; 1.0 |] |] [| [| 1.0; 0.0 |]; [| 0.0; 2.0 |] |]

let chicken =
  make [| [| 0.0; -1.0 |]; [| 1.0; -10.0 |] |]
    [| [| 0.0; 1.0 |]; [| -1.0; -10.0 |] |]

(* 0 = Peer, 1 = Refuse.  Mutual peering saves transit cost (payoff 4);
   refusing against a peering rival free-rides on their openness (5 vs 0);
   mutual refusal forces both onto paid transit (1). *)
let peering_game =
  make [| [| 4.0; 0.0 |]; [| 5.0; 1.0 |] |] [| [| 4.0; 5.0 |]; [| 0.0; 1.0 |] |]
