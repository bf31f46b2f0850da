(* A run's behavior signature: a coarse, canonical fingerprint of the
   invariant obs ledger.  The coverage-guided search keeps a mutant in
   its live corpus exactly when its signature is new, so "coverage"
   means "made the simulator do something no earlier plan did" —
   distinct drop profiles, transfer outcomes, healing activity, or
   event-queue pressure — rather than "has different bytes". *)

module Net = Tussle_netsim.Net

(* log2 buckets, like the obs histograms: 0, 1, 2, 3-4, 5-8, ... —
   exact counts would make every plan "novel" and dissolve the
   signal. *)
let bucket n =
  if n <= 0 then 0
  else begin
    let b = ref 1 and top = ref 1 in
    while n > !top do
      incr b;
      top := !top * 2
    done;
    !b
  end

let transfer_counts transfers =
  List.fold_left
    (fun (c, a, v) -> function
      | Invariant.Completed -> (c + 1, a, v)
      | Invariant.Abandoned -> (c, a + 1, v)
      | Invariant.Active -> (c, a, v + 1))
    (0, 0, 0) transfers

let of_obs (o : Invariant.obs) =
  (* per label, summed over locations, then bucketed *)
  let drops =
    Net.losses_by_label o.Invariant.losses
    |> List.filter (fun (_, n) -> n > 0)
    |> List.map (fun (label, n) -> Printf.sprintf "%s:%d" label (bucket n))
    |> String.concat ","
  in
  let completed, abandoned, active = transfer_counts o.Invariant.transfers in
  let covert =
    o.Invariant.link_gray_drops
    + Net.count_losses
        (function Net.Blackholed _ -> true | _ -> false)
        o.Invariant.losses
  in
  Printf.sprintf "drops[%s] xfer[%d/%d/%d] heal:%d covert:%d hw:%d inflight:%d"
    drops completed abandoned active
    (bucket o.Invariant.reconvergences)
    (bucket covert)
    (bucket o.Invariant.engine_high_water)
    (bucket o.Invariant.in_flight)
