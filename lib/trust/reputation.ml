type t = {
  forgetting : float;
  pos : float array;
  neg : float array;
}

let create ?(forgetting = 1.0) n =
  if n < 0 then invalid_arg "Reputation.create: negative size";
  if forgetting <= 0.0 || forgetting > 1.0 then
    invalid_arg "Reputation.create: forgetting must be in (0,1]";
  { forgetting; pos = Array.make n 0.0; neg = Array.make n 0.0 }

let check t subject =
  if subject < 0 || subject >= Array.length t.pos then
    invalid_arg "Reputation: subject out of range"

let rate t ~subject ~good =
  check t subject;
  t.pos.(subject) <- t.pos.(subject) *. t.forgetting;
  t.neg.(subject) <- t.neg.(subject) *. t.forgetting;
  if good then t.pos.(subject) <- t.pos.(subject) +. 1.0
  else t.neg.(subject) <- t.neg.(subject) +. 1.0

let score t ~subject =
  check t subject;
  (t.pos.(subject) +. 1.0) /. (t.pos.(subject) +. t.neg.(subject) +. 2.0)

let ranking t =
  let n = Array.length t.pos in
  List.init n (fun i -> (i, score t ~subject:i))
  |> List.sort (fun (ia, sa) (ib, sb) ->
         match compare sb sa with 0 -> compare ia ib | c -> c)
