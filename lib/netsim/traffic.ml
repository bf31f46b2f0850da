type t = { mutable next_id : int }

let create () = { next_id = 0 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let constant_flow t engine net ~start ~interval ~count ~make =
  if interval < 0.0 then invalid_arg "Traffic.constant_flow: negative interval";
  for i = 0 to count - 1 do
    let at = start +. (float_of_int i *. interval) in
    Engine.schedule engine at (fun engine ->
        let p = make t ~created:(Engine.now engine) in
        Net.inject net engine p)
  done
