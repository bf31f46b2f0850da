type solution = {
  value_lower : float;
  value_upper : float;
  row_strategy : float array;
  col_strategy : float array;
  iterations : int;
}

let argmax xs =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > xs.(!best) then best := i) xs;
  !best

let argmin xs =
  let best = ref 0 in
  Array.iteri (fun i v -> if v < xs.(!best) then best := i) xs;
  !best

let solve ?(iterations = 10_000) a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Zerosum.solve: empty matrix";
  let m = Array.length a.(0) in
  if m = 0 then invalid_arg "Zerosum.solve: empty row";
  Array.iter
    (fun row ->
      if Array.length row <> m then invalid_arg "Zerosum.solve: ragged matrix")
    a;
  if iterations <= 0 then invalid_arg "Zerosum.solve: non-positive iterations";
  let row_counts = Array.make n 0.0 and col_counts = Array.make m 0.0 in
  (* cumulative payoff to row of each row strategy against column's
     empirical play, and symmetric for column *)
  let row_cum = Array.make n 0.0 and col_cum = Array.make m 0.0 in
  let lower = ref neg_infinity and upper = ref infinity in
  (* round 1: row plays 0 *)
  let current_row = ref 0 in
  for it = 1 to iterations do
    let i = !current_row in
    row_counts.(i) <- row_counts.(i) +. 1.0;
    for j = 0 to m - 1 do
      col_cum.(j) <- col_cum.(j) +. a.(i).(j)
    done;
    (* column best-responds (minimizes row payoff) to row's empirical play *)
    let j = argmin col_cum in
    col_counts.(j) <- col_counts.(j) +. 1.0;
    for i' = 0 to n - 1 do
      row_cum.(i') <- row_cum.(i') +. a.(i').(j)
    done;
    let t = float_of_int it in
    (* row's guaranteed value against col's empirical mixture, and vice versa *)
    upper := Float.min !upper (Array.fold_left Float.max neg_infinity row_cum /. t);
    lower := Float.max !lower (Array.fold_left Float.min infinity col_cum /. t);
    current_row := argmax row_cum
  done;
  let t = float_of_int iterations in
  {
    value_lower = !lower;
    value_upper = !upper;
    row_strategy = Array.map (fun c -> c /. t) row_counts;
    col_strategy = Array.map (fun c -> c /. t) col_counts;
    iterations;
  }

let value_estimate s = (s.value_lower +. s.value_upper) /. 2.0

let gap s = s.value_upper -. s.value_lower
