type profile = { p : float array; q : float array }

let tol = 1e-9

(* enumerate k-subsets of [0..n-1] *)
let subsets n k =
  let rec go start k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun first ->
          List.map (fun rest -> first :: rest) (go (first + 1) (k - 1)))
        (List.init (n - start - k + 1) (fun i -> start + i))
  in
  go 0 k

(* Given row support sr and col support sc (equal size k), solve for the
   column mixture q on sc that makes every row in sr indifferent, plus
   the common value v.  Unknowns: q_(sc) (k of them) and v. *)
let solve_indifference payoff_matrix support other_support =
  let k = List.length support in
  let sr = Array.of_list support and sc = Array.of_list other_support in
  (* equations: for each i in sr: sum_j A[i][sc_j] q_j - v = 0
     plus: sum_j q_j = 1 *)
  let dim = k + 1 in
  let mat = Array.make_matrix dim dim 0.0 in
  let rhs = Array.make dim 0.0 in
  for r = 0 to k - 1 do
    for c = 0 to k - 1 do
      mat.(r).(c) <- payoff_matrix.(sr.(r)).(sc.(c))
    done;
    mat.(r).(k) <- -1.0
  done;
  for c = 0 to k - 1 do
    mat.(k).(c) <- 1.0
  done;
  rhs.(k) <- 1.0;
  match Linalg.solve mat rhs with
  | None -> None
  | Some sol ->
    let q = Array.sub sol 0 k and v = sol.(k) in
    if Array.for_all (fun x -> x >= -.tol) q then Some (q, v) else None

let expand n support weights =
  let full = Array.make n 0.0 in
  List.iteri (fun idx i -> full.(i) <- Float.max 0.0 weights.(idx)) support;
  (* renormalize tiny numeric drift *)
  let s = Array.fold_left ( +. ) 0.0 full in
  if s > 0.0 then Array.map (fun x -> x /. s) full else full

let no_profitable_deviation payoff_matrix mixed_other v ~n =
  (* every pure strategy payoff <= v + tol against the other's mixture *)
  let ok = ref true in
  for i = 0 to n - 1 do
    let u = ref 0.0 in
    Array.iteri
      (fun j w -> u := !u +. (w *. payoff_matrix.(i).(j)))
      mixed_other;
    if !u > v +. 1e-6 then ok := false
  done;
  !ok

let support_enumeration g =
  let n = Normal_form.rows g and m = Normal_form.cols g in
  let kmax = min n m in
  let a = Normal_form.row_matrix g and b = Normal_form.col_matrix g in
  let results = ref [] in
  for k = 1 to kmax do
    let row_supports = subsets n k and col_supports = subsets m k in
    List.iter
      (fun sr ->
        List.iter
          (fun sc ->
            (* q makes rows in sr indifferent (using A);
               p makes cols in sc indifferent (using B^T). *)
            let bt = Array.init m (fun j -> Array.init n (fun i -> b.(i).(j))) in
            match (solve_indifference a sr sc, solve_indifference bt sc sr) with
            | Some (q_s, va), Some (p_s, vb) ->
              let q = expand m sc q_s and p = expand n sr p_s in
              if
                no_profitable_deviation a q va ~n
                && no_profitable_deviation bt p vb ~n:m
              then results := { p; q } :: !results
            | _, _ -> ())
          col_supports)
      row_supports
  done;
  (* dedupe near-identical profiles *)
  let close x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) x y
  in
  List.fold_left
    (fun acc pr ->
      if List.exists (fun pr' -> close pr.p pr'.p && close pr.q pr'.q) acc then acc
      else pr :: acc)
    [] (List.rev !results)
  |> List.rev

let is_epsilon_nash g { p; q } ~epsilon =
  let up, uq = Normal_form.expected_payoff g p q in
  let n = Normal_form.rows g and m = Normal_form.cols g in
  let pure k len = Array.init len (fun i -> if i = k then 1.0 else 0.0) in
  let row_ok = ref true in
  for i = 0 to n - 1 do
    let u, _ = Normal_form.expected_payoff g (pure i n) q in
    if u > up +. epsilon then row_ok := false
  done;
  let col_ok = ref true in
  for j = 0 to m - 1 do
    let _, u = Normal_form.expected_payoff g p (pure j m) in
    if u > uq +. epsilon then col_ok := false
  done;
  !row_ok && !col_ok
