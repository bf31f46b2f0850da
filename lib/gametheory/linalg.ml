let epsilon = 1e-10

let solve a b =
  let n = Array.length a in
  if n = 0 || Array.length b <> n then invalid_arg "Linalg.solve: shape";
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Linalg.solve: shape")
    a;
  (* augmented copy *)
  let m = Array.init n (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
  let ok = ref true in
  (let rec eliminate col =
     if col < n && !ok then begin
       (* partial pivot *)
       let pivot = ref col in
       for r = col + 1 to n - 1 do
         if Float.abs m.(r).(col) > Float.abs m.(!pivot).(col) then pivot := r
       done;
       if Float.abs m.(!pivot).(col) < epsilon then ok := false
       else begin
         let tmp = m.(col) in
         m.(col) <- m.(!pivot);
         m.(!pivot) <- tmp;
         for r = 0 to n - 1 do
           if r <> col then begin
             let factor = m.(r).(col) /. m.(col).(col) in
             for c = col to n do
               m.(r).(c) <- m.(r).(c) -. (factor *. m.(col).(c))
             done
           end
         done;
         eliminate (col + 1)
       end
     end
   in
   eliminate 0);
  if not !ok then None
  else Some (Array.init n (fun i -> m.(i).(n) /. m.(i).(i)))
