(* Tests for tussle.trust: trust graph, firewall control, traceback. *)

module Trust_graph = Tussle_trust.Trust_graph

let check_float = Alcotest.(check (float 1e-9))
let check_close = Alcotest.(check (float 1e-6))

(* ---------- Trust graph ---------- *)

let test_trust_direct () =
  let g = Trust_graph.create 3 in
  Trust_graph.set_trust g ~truster:0 ~trustee:1 0.8;
  check_float "direct" 0.8 (Trust_graph.direct_trust g ~truster:0 ~trustee:1);
  check_float "no edge" 0.0 (Trust_graph.direct_trust g ~truster:1 ~trustee:0);
  check_float "self" 1.0 (Trust_graph.direct_trust g ~truster:2 ~trustee:2)

let test_trust_derived_chain () =
  let g = Trust_graph.create 4 in
  Trust_graph.set_trust g ~truster:0 ~trustee:1 0.9;
  Trust_graph.set_trust g ~truster:1 ~trustee:2 0.8;
  Trust_graph.set_trust g ~truster:2 ~trustee:3 0.5;
  check_close "two hops" 0.72 (Trust_graph.derived_trust g ~truster:0 ~trustee:2);
  check_close "three hops" 0.36 (Trust_graph.derived_trust g ~truster:0 ~trustee:3);
  (* attenuation: derived trust never exceeds the weakest... product *)
  Alcotest.(check bool) "attenuates" true
    (Trust_graph.derived_trust g ~truster:0 ~trustee:3
    < Trust_graph.derived_trust g ~truster:0 ~trustee:1)

let test_trust_best_path () =
  let g = Trust_graph.create 4 in
  (* weak direct vs strong indirect *)
  Trust_graph.set_trust g ~truster:0 ~trustee:3 0.2;
  Trust_graph.set_trust g ~truster:0 ~trustee:1 0.9;
  Trust_graph.set_trust g ~truster:1 ~trustee:3 0.9;
  check_close "picks best path" 0.81
    (Trust_graph.derived_trust g ~truster:0 ~trustee:3)

let test_trust_depth_bound () =
  let g = Trust_graph.create 6 in
  for i = 0 to 4 do
    Trust_graph.set_trust g ~truster:i ~trustee:(i + 1) 1.0
  done;
  check_float "within depth" 1.0
    (Trust_graph.derived_trust ~max_depth:5 g ~truster:0 ~trustee:5);
  check_float "beyond depth" 0.0
    (Trust_graph.derived_trust ~max_depth:4 g ~truster:0 ~trustee:5)

let test_trust_threshold_and_revoke () =
  let g = Trust_graph.create 2 in
  Trust_graph.add_mutual g 0 1 0.7;
  Alcotest.(check bool) "trusts" true (Trust_graph.trusts g ~threshold:0.5 0 1);
  Alcotest.(check bool) "not that much" false
    (Trust_graph.trusts g ~threshold:0.9 0 1);
  (* revoking is re-setting one direction to 0 *)
  Trust_graph.set_trust g ~truster:0 ~trustee:1 0.0;
  check_float "revoked" 0.0 (Trust_graph.direct_trust g ~truster:0 ~trustee:1);
  Alcotest.(check bool) "no longer trusts" false
    (Trust_graph.trusts g ~threshold:0.5 0 1);
  check_float "other direction intact" 0.7
    (Trust_graph.direct_trust g ~truster:1 ~trustee:0)

let test_trust_validation () =
  let g = Trust_graph.create 2 in
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Trust_graph.set_trust: weight not in [0,1]") (fun () ->
      Trust_graph.set_trust g ~truster:0 ~trustee:1 1.5)

(* ---------- Traceback ---------- *)

module Traceback = Tussle_trust.Traceback
module Rng = Tussle_prelude.Rng
module Stats = Tussle_prelude.Stats

let attack_path = [ 7; 8; 9; 10; 11 ]

let test_traceback_reconstructs_with_enough_packets () =
  let rng = Rng.create 21 in
  let obs = Traceback.simulate rng ~path:attack_path ~p:0.2 ~packets:50_000 in
  let guess = Traceback.reconstruct obs in
  check_float "perfect" 1.0 (Traceback.accuracy ~truth:attack_path ~guess)

let test_traceback_few_packets_noisy () =
  (* average accuracy over trials with 10 packets is well below 1 *)
  let acc =
    List.init 50 (fun k ->
        let rng = Rng.create (100 + k) in
        let obs = Traceback.simulate rng ~path:attack_path ~p:0.2 ~packets:10 in
        Traceback.accuracy ~truth:attack_path ~guess:(Traceback.reconstruct obs))
  in
  let mean = List.fold_left ( +. ) 0.0 acc /. 50.0 in
  Alcotest.(check bool) "noisy" true (mean < 0.95)

let test_traceback_expected_marks () =
  (* distance 1 from the victim end: router last in path *)
  check_float "nearest" (0.2 *. 1000.0)
    (Traceback.expected_marks ~p:0.2 ~distance:1 ~packets:1000);
  Alcotest.(check bool) "farther is rarer" true
    (Traceback.expected_marks ~p:0.2 ~distance:5 ~packets:1000
    < Traceback.expected_marks ~p:0.2 ~distance:2 ~packets:1000)

let test_traceback_mark_distribution () =
  (* empirical counts roughly follow p(1-p)^(d-1) *)
  let rng = Rng.create 23 in
  let packets = 200_000 in
  let obs = Traceback.simulate rng ~path:attack_path ~p:0.25 ~packets in
  List.iteri
    (fun i router ->
      let distance = List.length attack_path - i in
      let expected = Traceback.expected_marks ~p:0.25 ~distance ~packets in
      let actual = float_of_int (List.assoc router obs) in
      Alcotest.(check bool)
        (Printf.sprintf "router %d within 10%%" router)
        true
        (Float.abs (actual -. expected) < 0.1 *. expected +. 50.0))
    attack_path

let test_traceback_validation () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad p"
    (Invalid_argument "Traceback.simulate: p not in (0,1)") (fun () ->
      ignore (Traceback.simulate rng ~path:[ 1 ] ~p:1.5 ~packets:10));
  Alcotest.check_raises "nan p"
    (Invalid_argument "Traceback.simulate: p not in (0,1)") (fun () ->
      ignore (Traceback.simulate rng ~path:[ 1 ] ~p:Float.nan ~packets:10));
  Alcotest.check_raises "empty path"
    (Invalid_argument "Traceback.simulate: empty path") (fun () ->
      ignore (Traceback.simulate rng ~path:[] ~p:0.5 ~packets:10))

(* Per-hop marking, the sampler [simulate] had before it drew each
   packet's mark in one draw: every router overwrites the mark with
   probability p in turn, counts in a Hashtbl.  Kept as the oracle:
   the two must agree in distribution, not in stream. *)
let reference_simulate rng ~path ~p ~packets =
  let counts = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace counts r 0) path;
  for _ = 1 to packets do
    let mark = ref None in
    List.iter (fun r -> if Rng.bernoulli rng p then mark := Some r) path;
    match !mark with
    | Some r ->
      Hashtbl.replace counts r
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts r))
    | None -> ()
  done;
  List.map (fun r -> (r, Option.value ~default:0 (Hashtbl.find_opt counts r))) path
  |> List.sort compare

(* Goodness of fit of [sim]'s marks, pooled over seeds 1..20 at 1,000
   packets each: one cell per distinct router, expecting
   [expected_marks] summed over the positions it holds, plus one cell
   for unmarked packets, expecting packets * (1-p)^k. *)
let marks_chi_square sim ~path ~p =
  let seeds = 20 and per_seed = 1_000 in
  let packets = seeds * per_seed in
  let k = List.length path in
  let routers = List.sort_uniq compare path in
  let cells = List.length routers in
  let observed = Array.make (cells + 1) 0.0 in
  for seed = 1 to seeds do
    let obs = sim (Rng.create seed) ~path ~p ~packets:per_seed in
    List.iteri
      (fun c r -> observed.(c) <- observed.(c) +. float_of_int (List.assoc r obs))
      routers
  done;
  let marked = Array.fold_left ( +. ) 0.0 observed in
  observed.(cells) <- float_of_int packets -. marked;
  let expected =
    Array.of_list
      (List.map
         (fun r ->
           List.fold_left ( +. ) 0.0
             (List.mapi
                (fun i r' ->
                  if r' = r then
                    Traceback.expected_marks ~p ~distance:(k - i) ~packets
                  else 0.0)
                path))
         routers
      @ [ float_of_int packets *. ((1.0 -. p) ** float_of_int k) ])
  in
  Stats.Test.chi_square ~observed ~expected

(* E17's path, a short path at a high p, a long one at a low p, and a
   path that lists a router twice (its count is shared, so its cell
   expects the marks of both positions).  The per-hop oracle passes
   the same check, so the expectation itself is right. *)
let test_traceback_marks_fit () =
  List.iter
    (fun (path, p) ->
      List.iter
        (fun (name, sim) ->
          let r = marks_chi_square sim ~path ~p in
          Alcotest.(check bool)
            (Printf.sprintf "%s, %d hops, p %g: chi2 %.2f, df %g, p-value %.4f > 0.001"
               name (List.length path) p r.Stats.Test.statistic r.Stats.Test.df
               r.Stats.Test.pvalue)
            true
            (r.Stats.Test.pvalue > 0.001))
        [ ("simulate", Traceback.simulate); ("per-hop", reference_simulate) ])
    [
      ([ 101; 102; 103; 104; 105; 106; 107; 108 ], 0.2);
      (attack_path, 0.5);
      (List.init 12 (fun i -> 200 + i), 0.05);
      ([ 3; 4; 3; 5 ], 0.3);
    ]

(* E17's reconstruction accuracy at 10 and 100 packets, 200 seeded
   trials of each sampler: Welch's test finds no difference. *)
let test_traceback_accuracy_matches_per_hop () =
  let path = [ 101; 102; 103; 104; 105; 106; 107; 108 ] in
  List.iter
    (fun packets ->
      let accuracies sim =
        Array.init 200 (fun k ->
            let obs = sim (Rng.create (5000 + k)) ~path ~p:0.2 ~packets in
            Traceback.accuracy ~truth:path ~guess:(Traceback.reconstruct obs))
      in
      let r =
        Stats.Test.two_sample (accuracies Traceback.simulate)
          (accuracies reference_simulate)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d packets: t %.3f, p-value %.4f > 0.01" packets
           r.Stats.Test.statistic r.Stats.Test.pvalue)
        true
        (r.Stats.Test.pvalue > 0.01))
    [ 10; 100 ]

(* Each packet takes exactly one [Rng.bits]: afterwards the generator
   is where a copy stands after [packets] draws.  SplitMix64's output
   is a bijection of its state, so one equal [int64] means equal
   states.  Router ids from a small range so paths often list a router
   twice. *)
let prop_traceback_one_draw_per_packet =
  QCheck2.Test.make ~name:"one draw per packet" ~count:300
    ~print:(fun (seed, path, p, packets) ->
      Printf.sprintf "seed=%d path=[%s] p=%h packets=%d" seed
        (String.concat ";" (List.map string_of_int path))
        p packets)
    QCheck2.Gen.(
      quad int
        (list_size (int_range 1 12) (int_range 0 6))
        (float_range 0.001 0.999) (int_range 1 2000))
    (fun (seed, path, p, packets) ->
      let rng = Rng.create seed in
      let copy = Rng.copy rng in
      let obs = Traceback.simulate rng ~path ~p ~packets in
      for _ = 1 to packets do
        ignore (Rng.bits copy)
      done;
      let distinct = List.sort_uniq compare obs in
      Rng.int64 rng = Rng.int64 copy
      && List.for_all (fun (_, c) -> c >= 0) obs
      && List.fold_left (fun acc (_, c) -> acc + c) 0 distinct <= packets)

(* At p = 0.999 over 12 hops, 1 - (1-p)^j rounds to 1.0 from j = 6
   on, where the scaled threshold is clamped to [max_int] rather than
   overflowing: every packet is marked, and no count is negative. *)
let test_traceback_near_certain_marking () =
  let path = List.init 12 (fun i -> 300 + i) in
  let packets = 100_000 in
  let obs = Traceback.simulate (Rng.create 17) ~path ~p:0.999 ~packets in
  List.iter
    (fun (r, c) -> Alcotest.(check bool) (Printf.sprintf "router %d >= 0" r) true (c >= 0))
    obs;
  Alcotest.(check int) "every packet marked" packets
    (List.fold_left (fun acc (_, c) -> acc + c) 0 obs);
  Alcotest.(check bool) "the router nearest the victim holds almost all" true
    (List.assoc 311 obs > 99_000)

let test_traceback_duplicate_router_shares_count () =
  let obs = Traceback.simulate (Rng.create 5) ~path:[ 3; 4; 3 ] ~p:0.5 ~packets:500 in
  match obs with
  | [ (3, a); (3, b); (4, _) ] -> Alcotest.(check int) "one count" a b
  | _ -> Alcotest.fail "expected two entries for router 3"

(* The E17 configuration at 1,000 packets, pinned mark for mark on
   the one-draw sampler's stream (the distribution is what the
   chi-square and Welch checks above hold). *)
let test_traceback_e17_pinned () =
  Alcotest.(check (list (pair int int)))
    "seed 1017, 8 hops, p 0.2"
    [
      (101, 35); (102, 55); (103, 72); (104, 87); (105, 102); (106, 129);
      (107, 160); (108, 206);
    ]
    (Traceback.simulate (Rng.create 1017)
       ~path:[ 101; 102; 103; 104; 105; 106; 107; 108 ]
       ~p:0.2 ~packets:1000)

(* Native only (bytecode boxes every float): a run allocates its
   arrays and the result list, nothing per packet. *)
let test_traceback_allocation_flat_in_packets () =
  if Sys.backend_type = Sys.Native then begin
    let words packets =
      let rng = Rng.create 9 in
      let before = Gc.minor_words () in
      ignore (Traceback.simulate rng ~path:attack_path ~p:0.2 ~packets);
      Gc.minor_words () -. before
    in
    Alcotest.(check (float 0.0)) "10 vs 10^4 packets" (words 10) (words 10_000)
  end

(* ---------- Firewall control ---------- *)

module Fc = Tussle_trust.Firewall_control
module Packet = Tussle_netsim.Packet
module Middlebox = Tussle_netsim.Middlebox

let game id src =
  Packet.make ~app:Packet.Game ~id ~src ~dst:50 ~created:0.0 ()

let test_fc_default_allow () =
  let t = Fc.create () in
  Alcotest.(check bool) "default allow" true (Fc.permits t (game 0 1))

let test_fc_admin_rule_binds () =
  let t = Fc.create () in
  (match
     Fc.add_rule t Fc.Admin ~allow:false
       { Fc.any with Fc.sel_port = Some (Packet.default_port Packet.Game) }
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "admin may rule anything");
  Alcotest.(check bool) "blocked" false (Fc.permits t (game 0 1))

let test_fc_user_scope () =
  let t = Fc.create ~users_may_override:true () in
  ignore
    (Fc.add_rule t Fc.Admin ~allow:false
       { Fc.any with Fc.sel_port = Some (Packet.default_port Packet.Game) });
  (* user 7 opens a pinhole for itself *)
  (match
     Fc.add_rule t (Fc.End_user 7) ~allow:true
       { Fc.any with Fc.sel_src = Some 7 }
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "own traffic is in scope");
  Alcotest.(check bool) "own traffic flows" true (Fc.permits t (game 0 7));
  Alcotest.(check bool) "others still blocked" false (Fc.permits t (game 1 8));
  (* but cannot legislate for others *)
  Alcotest.(check bool) "overreach refused" true
    (Fc.add_rule t (Fc.End_user 7) ~allow:true
       { Fc.any with Fc.sel_src = Some 8 }
    = Error `Beyond_authority)

let test_fc_admin_precedence () =
  let t = Fc.create ~users_may_override:false () in
  ignore
    (Fc.add_rule t Fc.Admin ~allow:false
       { Fc.any with Fc.sel_port = Some (Packet.default_port Packet.Game) });
  ignore
    (Fc.add_rule t (Fc.End_user 7) ~allow:true
       { Fc.any with Fc.sel_src = Some 7 });
  Alcotest.(check bool) "admin wins" false (Fc.permits t (game 0 7))

let test_fc_transparency () =
  let t = Fc.create () in
  ignore
    (Fc.add_rule t Fc.Admin ~allow:false ~visible:false
       { Fc.any with Fc.sel_dst = Some 7 });
  ignore
    (Fc.add_rule t Fc.Admin ~allow:false ~visible:true
       { Fc.any with Fc.sel_src = Some 7 });
  check_float "half visible" 0.5 (Fc.rule_transparency t ~user:7);
  Alcotest.(check int) "visible count" 1 (List.length (Fc.visible_rules t ~user:7));
  (* the middlebox is honest only when all rules are visible *)
  Alcotest.(check bool) "covert middlebox" false
    (Middlebox.reveals_presence (Fc.middlebox t));
  let clean = Fc.create () in
  check_float "unconstrained" 1.0 (Fc.rule_transparency clean ~user:7)

let () =
  Alcotest.run "trust"
    [
      ( "trust-graph",
        [
          Alcotest.test_case "direct" `Quick test_trust_direct;
          Alcotest.test_case "derived chain" `Quick test_trust_derived_chain;
          Alcotest.test_case "best path" `Quick test_trust_best_path;
          Alcotest.test_case "depth bound" `Quick test_trust_depth_bound;
          Alcotest.test_case "threshold/revoke" `Quick test_trust_threshold_and_revoke;
          Alcotest.test_case "validation" `Quick test_trust_validation;
        ] );
      ( "firewall-control",
        [
          Alcotest.test_case "defaults" `Quick test_fc_default_allow;
          Alcotest.test_case "admin rule binds" `Quick test_fc_admin_rule_binds;
          Alcotest.test_case "user scope" `Quick test_fc_user_scope;
          Alcotest.test_case "admin precedence" `Quick test_fc_admin_precedence;
          Alcotest.test_case "transparency" `Quick test_fc_transparency;
        ] );
      ( "traceback",
        [
          Alcotest.test_case "reconstructs" `Quick
            test_traceback_reconstructs_with_enough_packets;
          Alcotest.test_case "few packets noisy" `Quick
            test_traceback_few_packets_noisy;
          Alcotest.test_case "expected marks" `Quick test_traceback_expected_marks;
          Alcotest.test_case "mark distribution" `Quick
            test_traceback_mark_distribution;
          Alcotest.test_case "validation" `Quick test_traceback_validation;
          Alcotest.test_case "duplicate router shares a count" `Quick
            test_traceback_duplicate_router_shares_count;
          Alcotest.test_case "E17 config pinned" `Quick test_traceback_e17_pinned;
          Alcotest.test_case "allocation flat in packets" `Quick
            test_traceback_allocation_flat_in_packets;
          Alcotest.test_case "marks fit chi-square" `Quick
            test_traceback_marks_fit;
          Alcotest.test_case "accuracy matches per-hop" `Quick
            test_traceback_accuracy_matches_per_hop;
          QCheck_alcotest.to_alcotest prop_traceback_one_draw_per_packet;
          Alcotest.test_case "near-certain marking" `Quick
            test_traceback_near_certain_marking;
        ] );
    ]
