(* Run [f] under a process domain budget of [n], then restore the
   caller's budget, also when [f] raises. *)
let with_domains n f =
  let saved = Tussle_prelude.Pool.domains () in
  Tussle_prelude.Pool.set_domains n;
  Fun.protect ~finally:(fun () -> Tussle_prelude.Pool.set_domains saved) f
