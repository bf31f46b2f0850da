(* The reference for [Pqueue]: a list kept in pop order.  A push goes
   after every entry whose key is at most its own, so equal keys pop in
   push order, the stable order the event queue promises.  Linear per
   push; for tests only. *)

type 'a t = (float * 'a) list ref

let create () : 'a t = ref []

let push (m : 'a t) key v =
  let rec ins = function
    | (k, _) as e :: rest when k <= key -> e :: ins rest
    | rest -> (key, v) :: rest
  in
  m := ins !m

let pop (m : 'a t) =
  match !m with
  | [] -> None
  | e :: rest ->
    m := rest;
    Some e

let length (m : 'a t) = List.length !m

let to_list (m : 'a t) = !m
