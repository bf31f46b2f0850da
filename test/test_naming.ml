(* Tests for tussle.naming: registry designs and addressing schemes. *)

module Registry = Tussle_naming.Registry
module Address = Tussle_naming.Address

let check_float = Alcotest.(check (float 1e-9))

let purpose =
  Alcotest.testable
    (fun ppf p ->
      Format.pp_print_string ppf
        (match p with
        | Registry.Machine -> "machine"
        | Registry.Mailbox -> "mailbox"
        | Registry.Brand -> "brand"))
    ( = )

(* ---------- Registry ---------- *)

let test_register_lookup () =
  let r = Registry.create Registry.Separated in
  Alcotest.(check bool) "register ok" true
    (Registry.register r ~owner:"acme" ~label:"acme" Registry.Machine = Ok ());
  Alcotest.(check (option string)) "lookup" (Some "acme")
    (Registry.lookup r ~label:"acme" Registry.Machine);
  Alcotest.(check (option string)) "other purpose empty" None
    (Registry.lookup r ~label:"acme" Registry.Brand)

let test_entangled_label_is_one_slot () =
  let r = Registry.create Registry.Entangled in
  ignore (Registry.register r ~owner:"smith" ~label:"acme" Registry.Machine);
  (match Registry.register r ~owner:"acme-corp" ~label:"acme" Registry.Brand with
  | Error (`Taken who) -> Alcotest.(check string) "held by smith" "smith" who
  | Ok () -> Alcotest.fail "entangled design must refuse");
  (* the same owner can add purposes *)
  Alcotest.(check bool) "same owner ok" true
    (Registry.register r ~owner:"smith" ~label:"acme" Registry.Mailbox = Ok ())

let test_separated_label_coexists () =
  let r = Registry.create Registry.Separated in
  ignore (Registry.register r ~owner:"smith" ~label:"acme" Registry.Machine);
  Alcotest.(check bool) "brand coexists" true
    (Registry.register r ~owner:"acme-corp" ~label:"acme" Registry.Brand = Ok ())

let test_dispute_entangled_spillover () =
  let r = Registry.create Registry.Entangled in
  ignore (Registry.register r ~owner:"smith" ~label:"acme" Registry.Machine);
  ignore (Registry.register r ~owner:"smith" ~label:"acme" Registry.Mailbox);
  (match Registry.dispute r ~claimant:"acme-corp" ~label:"acme" with
  | `Transferred disrupted ->
    Alcotest.(check (list purpose)) "machine and mailbox broken"
      [ Registry.Machine; Registry.Mailbox ] disrupted
  | `No_target -> Alcotest.fail "dispute had a target");
  (* smith's services are gone; claimant now holds them *)
  Alcotest.(check (option string)) "machine seized" (Some "acme-corp")
    (Registry.lookup r ~label:"acme" Registry.Machine);
  Alcotest.(check int) "disruptions" 2 (Registry.disruptions r);
  check_float "spillover 2 per dispute" 2.0 (Registry.spillover r)

let test_dispute_separated_no_spillover () =
  let r = Registry.create Registry.Separated in
  ignore (Registry.register r ~owner:"smith" ~label:"acme" Registry.Machine);
  ignore (Registry.register r ~owner:"smith" ~label:"acme" Registry.Brand);
  (match Registry.dispute r ~claimant:"acme-corp" ~label:"acme" with
  | `Transferred disrupted ->
    Alcotest.(check (list purpose)) "nothing broken" [] disrupted
  | `No_target -> Alcotest.fail "dispute had a target");
  Alcotest.(check (option string)) "machine survives" (Some "smith")
    (Registry.lookup r ~label:"acme" Registry.Machine);
  Alcotest.(check (option string)) "brand moved" (Some "acme-corp")
    (Registry.lookup r ~label:"acme" Registry.Brand);
  check_float "no spillover" 0.0 (Registry.spillover r)

let test_dispute_no_target () =
  let r = Registry.create Registry.Entangled in
  Alcotest.(check bool) "nothing to take" true
    (Registry.dispute r ~claimant:"x" ~label:"ghost" = `No_target);
  Alcotest.(check int) "still counted" 1 (Registry.disputes_filed r)

let test_bindings_sorted () =
  let r = Registry.create Registry.Separated in
  ignore (Registry.register r ~owner:"b" ~label:"zeta" Registry.Machine);
  ignore (Registry.register r ~owner:"a" ~label:"alpha" Registry.Machine);
  match Registry.bindings r with
  | [ ("alpha", _, "a"); ("zeta", _, "b") ] -> ()
  | _ -> Alcotest.fail "expected sorted bindings"

(* ---------- Address ---------- *)

let test_address_switching_costs () =
  check_float "provider-based scales with hosts" 40.0
    (Address.switching_cost (Address.Provider_based { static_hosts = 40 }));
  check_float "dynamic is flat" 0.5
    (Address.switching_cost (Address.Dynamic { hosts = 500 }));
  check_float "portable is free" 0.0
    (Address.switching_cost (Address.Portable { prefixes = 4 }))

let test_address_validation () =
  Alcotest.check_raises "negative hosts" (Invalid_argument "Address: negative hosts")
    (fun () ->
      ignore (Address.switching_cost (Address.Provider_based { static_hosts = -1 })))

(* ---------- Resolver ---------- *)

module Resolver = Tussle_naming.Resolver

let zone =
  Resolver.authority
    [
      { Resolver.name = "a.example"; address = 1; ttl = 100.0 };
      { Resolver.name = "b.example"; address = 2; ttl = 10.0 };
    ]

let test_resolver_honest () =
  let r = Resolver.create zone in
  Alcotest.(check bool) "hit" true (Resolver.resolve r ~now:0.0 "a.example" = Resolver.Address 1);
  Alcotest.(check bool) "miss" true (Resolver.resolve r ~now:0.0 "zzz.example" = Resolver.Nxdomain);
  check_float "fully truthful" 1.0
    (Resolver.truthfulness r ~now:0.0 ~names:[ "a.example"; "b.example"; "x" ])

let test_resolver_cache () =
  (* the zone moves a.example (TTL 100 s) after the first answer: the
     resolver serves the cached address until the TTL ends, then asks
     the authority again *)
  let zone =
    Resolver.authority
      [ { Resolver.name = "a.example"; address = 1; ttl = 100.0 } ]
  in
  let r = Resolver.create zone in
  let answer now = Resolver.resolve r ~now "a.example" in
  Alcotest.(check bool) "first answer" true (answer 0.0 = Resolver.Address 1);
  Hashtbl.replace zone "a.example"
    { Resolver.name = "a.example"; address = 7; ttl = 100.0 };
  Alcotest.(check bool) "cached, stale" true (answer 50.0 = Resolver.Address 1);
  Alcotest.(check bool) "ttl expired, refetched" true
    (answer 150.0 = Resolver.Address 7)

let test_resolver_nxdomain_monetizing () =
  let r = Resolver.create ~policy:(Resolver.Nxdomain_monetizing 99) zone in
  Alcotest.(check bool) "typo monetized" true
    (Resolver.resolve r ~now:0.0 "tpyo.example" = Resolver.Address 99);
  Alcotest.(check bool) "real names honest" true
    (Resolver.resolve r ~now:0.0 "a.example" = Resolver.Address 1);
  Alcotest.(check bool) "lie detected" false
    (Resolver.truthful r ~now:0.0 "tpyo.example")

let test_resolver_blocking () =
  let r = Resolver.create ~policy:(Resolver.Blocking [ "a.example" ]) zone in
  Alcotest.(check bool) "refused" true
    (Resolver.resolve r ~now:0.0 "a.example" = Resolver.Refused);
  Alcotest.(check bool) "others fine" true
    (Resolver.resolve r ~now:0.0 "b.example" = Resolver.Address 2)

let test_resolver_redirecting () =
  let r =
    Resolver.create ~policy:(Resolver.Redirecting [ ("b.example", 77) ]) zone
  in
  Alcotest.(check bool) "redirected" true
    (Resolver.resolve r ~now:0.0 "b.example" = Resolver.Address 77);
  Alcotest.(check bool) "untouched" true
    (Resolver.resolve r ~now:0.0 "a.example" = Resolver.Address 1)

let () =
  Alcotest.run "naming"
    [
      ( "registry",
        [
          Alcotest.test_case "register/lookup" `Quick test_register_lookup;
          Alcotest.test_case "entangled one slot" `Quick test_entangled_label_is_one_slot;
          Alcotest.test_case "separated coexists" `Quick test_separated_label_coexists;
          Alcotest.test_case "entangled spillover" `Quick test_dispute_entangled_spillover;
          Alcotest.test_case "separated isolation" `Quick
            test_dispute_separated_no_spillover;
          Alcotest.test_case "no target" `Quick test_dispute_no_target;
          Alcotest.test_case "bindings sorted" `Quick test_bindings_sorted;
        ] );
      ( "resolver",
        [
          Alcotest.test_case "honest" `Quick test_resolver_honest;
          Alcotest.test_case "cache/ttl" `Quick test_resolver_cache;
          Alcotest.test_case "nxdomain monetizing" `Quick
            test_resolver_nxdomain_monetizing;
          Alcotest.test_case "blocking" `Quick test_resolver_blocking;
          Alcotest.test_case "redirecting" `Quick test_resolver_redirecting;
        ] );
      ( "address",
        [
          Alcotest.test_case "switching costs" `Quick test_address_switching_costs;
          Alcotest.test_case "validation" `Quick test_address_validation;
        ] );
    ]
