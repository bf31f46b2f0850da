(* Cross-substrate property-based tests: randomized invariants that the
   unit suites cannot cover exhaustively. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Topology = Tussle_netsim.Topology
module Congestion = Tussle_netsim.Congestion
module Pathvector = Tussle_routing.Pathvector
module Payment = Tussle_econ.Payment
module Mechanism = Tussle_core.Mechanism
module Interest = Tussle_core.Interest
module Actor = Tussle_core.Actor
module Trust_graph = Tussle_trust.Trust_graph
module Registry = Tussle_naming.Registry
module Guidelines = Tussle_core.Guidelines

(* ---------- path-vector: Gao-Rexford safety on random topologies ----- *)

let valley_free g src path =
  let rel u v =
    match Graph.find_edge g u v with Some (_, r) -> Some r | None -> None
  in
  let rec walk prev state = function
    | [] -> true
    | hop :: rest -> (
      match rel prev hop with
      | None -> false (* path must follow real edges *)
      | Some r ->
        let ok, state' =
          match (r, state) with
          | Topology.Customer_of, `Up -> (true, `Up)
          | Topology.Customer_of, (`Peered | `Down) -> (false, `Down)
          | Topology.Peer_with, `Up -> (true, `Peered)
          | Topology.Peer_with, (`Peered | `Down) -> (false, `Down)
          | Topology.Provider_of, _ -> (true, `Down)
          | Topology.Internal, s -> (true, s)
        in
        ok && walk hop state' rest)
  in
  walk src `Up path

let prop_pathvector_valley_free =
  QCheck2.Test.make ~name:"path-vector routes are valley-free" ~count:25
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 2 6) (int_range 1 3))
    (fun (transits, accesses, hosts_per_access) ->
      let rng = Rng.create (transits + (17 * accesses) + (289 * hosts_per_access)) in
      let multihoming = min transits 2 in
      let tt =
        Topology.two_tier rng ~transits ~accesses ~hosts_per_access
          ~multihoming
      in
      let pv = Pathvector.compute tt.Topology.graph in
      List.for_all
        (fun (src, _dst, path) -> valley_free tt.Topology.graph src path)
        (Pathvector.visible_paths pv))

let prop_pathvector_two_tier_full_reachability =
  QCheck2.Test.make ~name:"two-tier topologies are policy-reachable" ~count:25
    QCheck2.Gen.(pair (int_range 1 4) (int_range 2 6))
    (fun (transits, accesses) ->
      let rng = Rng.create ((31 * transits) + accesses) in
      let tt =
        Topology.two_tier rng ~transits ~accesses ~hosts_per_access:2
          ~multihoming:(min transits 2)
      in
      let pv = Pathvector.compute tt.Topology.graph in
      Pathvector.reachability_ratio pv = 1.0)

(* ---------- payment: conservation under random operation sequences --- *)

type pay_op = Pay of int * int * float | Auth of int * int * float * bool

let pay_op_gen =
  QCheck2.Gen.(
    let* payer = int_range 0 4 in
    let* payee = int_range 0 4 in
    let* amount = float_range 0.0 5.0 in
    let* escrowed = bool in
    let* capture = bool in
    return
      (if escrowed then Auth (payer, payee, amount, capture)
       else Pay (payer, payee, amount)))

let prop_payment_conservation =
  QCheck2.Test.make ~name:"payment ledger conserves money" ~count:300
    QCheck2.Gen.(list_size (int_range 0 30) pay_op_gen)
    (fun ops ->
      let l = Payment.create ~parties:5 ~initial:50.0 in
      List.iter
        (fun op ->
          match op with
          | Pay (payer, payee, amount) ->
            ignore (Payment.pay_path l ~payer ~hops:[ (payee, amount) ])
          | Auth (payer, payee, amount, capture) -> (
            match Payment.authorize l ~payer ~hops:[ (payee, amount) ] with
            | Error _ -> ()
            | Ok e ->
              if capture then ignore (Payment.capture l e)
              else Payment.refund l e))
        ops;
      Float.abs (Payment.total_supply l -. 250.0) < 1e-6)

let prop_payment_no_overdraft =
  QCheck2.Test.make ~name:"payment never overdraws" ~count:300
    QCheck2.Gen.(list_size (int_range 0 30) pay_op_gen)
    (fun ops ->
      let l = Payment.create ~parties:5 ~initial:10.0 in
      List.iter
        (fun op ->
          match op with
          | Pay (payer, payee, amount) ->
            ignore (Payment.pay_path l ~payer ~hops:[ (payee, amount) ])
          | Auth (payer, payee, amount, capture) -> (
            match Payment.authorize l ~payer ~hops:[ (payee, amount) ] with
            | Error _ -> ()
            | Ok e -> if capture then ignore (Payment.capture l e) else Payment.refund l e))
        ops;
      List.for_all
        (fun p -> Payment.balance l p >= -1e-9)
        [ 0; 1; 2; 3; 4 ])

(* ---------- congestion: max-min allocation invariants ---------- *)

let demands_gen =
  QCheck2.Gen.(array_size (int_range 1 12) (float_range 0.0 50.0))

let prop_max_min_feasible =
  QCheck2.Test.make ~name:"max-min never exceeds capacity or demand" ~count:300
    QCheck2.Gen.(pair demands_gen (float_range 1.0 100.0))
    (fun (demands, capacity) ->
      let alloc = Congestion.max_min_allocation demands capacity in
      let total = Array.fold_left ( +. ) 0.0 alloc in
      total <= capacity +. 1e-6
      && Array.for_all2 (fun a d -> a <= d +. 1e-6) alloc demands)

let prop_max_min_work_conserving =
  QCheck2.Test.make ~name:"max-min is work-conserving" ~count:300
    QCheck2.Gen.(pair demands_gen (float_range 1.0 100.0))
    (fun (demands, capacity) ->
      let alloc = Congestion.max_min_allocation demands capacity in
      let total_alloc = Array.fold_left ( +. ) 0.0 alloc in
      let total_demand = Array.fold_left ( +. ) 0.0 demands in
      (* either all demand is met, or capacity is exhausted *)
      Float.abs (total_alloc -. Float.min total_demand capacity) < 1e-6)

(* ---------- mechanism countering: invariants of the active set ------- *)

let mech_pool =
  Array.of_list Mechanism.catalogue

let prop_active_subset_no_surviving_counter =
  QCheck2.Test.make ~name:"no active mechanism is countered by an active one"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 (Array.length mech_pool - 1)))
    (fun indices ->
      (* dedupe (keeping first occurrence): deploying the same mechanism
         twice is a no-op in the engine, and duplicates break positional
         reasoning below *)
      let indices =
        List.fold_left
          (fun acc i -> if List.mem i acc then acc else i :: acc)
          [] indices
        |> List.rev
      in
      let deployed = List.map (fun i -> mech_pool.(i)) indices in
      let active = Mechanism.active deployed in
      (* subset *)
      List.for_all (fun m -> List.memq m deployed) active
      (* internally consistent: nothing active counters anything active
         that was deployed later *)
      && List.for_all
           (fun m ->
             List.for_all
               (fun m' ->
                 m == m'
                 || not (List.mem m.Mechanism.name m'.Mechanism.counters)
                 || (* m' counters m: legal only if m came later *)
                 let pos x =
                   let rec go i = function
                     | [] -> -1
                     | y :: rest -> if x == y then i else go (i + 1) rest
                   in
                   go 0 deployed
                 in
                 pos m > pos m')
               active)
           active)

(* ---------- trust graph: derived trust bounds and monotonicity ------- *)

let prop_trust_bounds =
  QCheck2.Test.make ~name:"derived trust stays in [0,1], monotone in depth"
    ~count:100
    QCheck2.Gen.(list_size (int_range 0 30) (triple (int_range 0 7) (int_range 0 7) (float_range 0.0 1.0)))
    (fun edges ->
      let g = Trust_graph.create 8 in
      List.iter
        (fun (a, b, w) ->
          if a <> b then Trust_graph.set_trust g ~truster:a ~trustee:b w)
        edges;
      let ok = ref true in
      for a = 0 to 7 do
        for b = 0 to 7 do
          let d2 = Trust_graph.derived_trust ~max_depth:2 g ~truster:a ~trustee:b in
          let d4 = Trust_graph.derived_trust ~max_depth:4 g ~truster:a ~trustee:b in
          if not (d2 >= 0.0 && d4 <= 1.0 && d2 <= d4 +. 1e-9) then ok := false
        done
      done;
      !ok)

(* ---------- registry: entangled design keeps one owner per label ----- *)

type reg_op = Register of int * int * int | Dispute of int * int

let reg_op_gen =
  QCheck2.Gen.(
    let* label = int_range 0 5 in
    let* owner = int_range 0 5 in
    let* purpose = int_range 0 2 in
    let* disputed = bool in
    return (if disputed then Dispute (label, owner) else Register (label, owner, purpose)))

let purpose_of = function
  | 0 -> Registry.Machine
  | 1 -> Registry.Mailbox
  | _ -> Registry.Brand

let prop_registry_entangled_single_owner =
  QCheck2.Test.make ~name:"entangled registry: one owner per label" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) reg_op_gen)
    (fun ops ->
      let r = Registry.create Registry.Entangled in
      List.iter
        (fun op ->
          match op with
          | Register (label, owner, purpose) ->
            ignore
              (Registry.register r
                 ~owner:(Printf.sprintf "o%d" owner)
                 ~label:(Printf.sprintf "l%d" label)
                 (purpose_of purpose))
          | Dispute (label, claimant) ->
            ignore
              (Registry.dispute r
                 ~claimant:(Printf.sprintf "c%d" claimant)
                 ~label:(Printf.sprintf "l%d" label)))
        ops;
      (* group bindings by label: each label has exactly one owner *)
      let by_label = Hashtbl.create 8 in
      List.iter
        (fun (label, _, owner) ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_label label) in
          Hashtbl.replace by_label label (owner :: cur))
        (Registry.bindings r);
      Hashtbl.fold
        (fun _ owners acc -> acc && List.length (List.sort_uniq compare owners) = 1)
        by_label true)

(* ---------- guidelines score bounds ---------- *)

let design_gen =
  QCheck2.Gen.(
    let* choices = int_range 0 5 in
    let* bits = array_size (return 9) bool in
    return
      {
        Guidelines.app_name = "generated";
        server_choices = choices;
        third_party_mediators_selectable = bits.(0);
        supports_e2e_encryption = bits.(1);
        user_controls_in_network_features = bits.(2);
        interfaces_open = bits.(3);
        value_flow_designed = bits.(4);
        identity_framework = bits.(5);
        contested_functions_separated = bits.(6);
        failure_reporting = bits.(7);
        anonymous_mode_honest = bits.(8);
      })

let prop_guidelines_score_consistent =
  QCheck2.Test.make ~name:"guideline score = 1 - violations/10" ~count:300
    design_gen
    (fun d ->
      let violations = List.length (Guidelines.lint d) in
      Float.abs (Guidelines.score d -. (1.0 -. (float_of_int violations /. 10.0)))
      < 1e-9)

let () =
  Alcotest.run "properties"
    [
      ( "randomized-invariants",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_pathvector_valley_free;
            prop_pathvector_two_tier_full_reachability;
            prop_payment_conservation;
            prop_payment_no_overdraft;
            prop_max_min_feasible;
            prop_max_min_work_conserving;
            prop_active_subset_no_surviving_counter;
            prop_trust_bounds;
            prop_registry_entangled_single_owner;
            prop_guidelines_score_consistent;
          ] );
    ]
