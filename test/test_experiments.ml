(* Tests for the experiment registry: ids, lookup, and the shape checks
   of the cheap experiments (the full battery runs in the bench
   harness). *)

module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry

let test_registry_complete () =
  Alcotest.(check int) "thirty experiments" 30 (List.length Registry.all);
  let ids = List.map (fun e -> e.Experiment.id) Registry.all in
  Alcotest.(check (list string)) "ids in order"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
      "E12"; "E13"; "E14"; "E15"; "E16"; "E17"; "E18"; "E19"; "E20"; "E21";
      "E22"; "E23"; "E24"; "E25"; "E26"; "E27"; "E28"; "E29"; "E30" ]
    ids

let test_registry_find () =
  (match Registry.find "e4" with
  | Some e -> Alcotest.(check string) "case-insensitive" "E4" e.Experiment.id
  | None -> Alcotest.fail "lookup failed");
  (* E99 is the watchdog hang probe: findable so the CLI can run it,
     but deliberately kept out of [Registry.all] *)
  (match Registry.find "E99" with
  | Some e ->
    Alcotest.(check string) "hang probe" "E99" e.Experiment.id;
    Alcotest.(check bool) "not in the battery" false
      (List.exists (fun e -> e.Experiment.id = "E99") Registry.all)
  | None -> Alcotest.fail "hang probe must resolve");
  Alcotest.(check bool) "unknown" true (Registry.find "E0" = None);
  (* what `tussle sweep -e IDS` accepts *)
  (match Registry.sweepable "e29" with
  | Ok e -> Alcotest.(check string) "sweepable" "E29" e.Experiment.id
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check (result reject string)) "no sweep surface"
    (Error "experiment E2 has no sweep surface (no per-run metrics to test)")
    (Registry.sweepable "E2");
  Alcotest.(check (result reject string)) "unknown id"
    (Error {|unknown experiment "EZZ"|}) (Registry.sweepable "EZZ")

let test_metadata_nonempty () =
  List.iter
    (fun e ->
      Alcotest.(check bool) (e.Experiment.id ^ " title") true
        (String.length e.Experiment.title > 10);
      Alcotest.(check bool) (e.Experiment.id ^ " claim") true
        (String.length e.Experiment.paper_claim > 40))
    Registry.all

(* shape checks of the fast experiments (sub-second each) *)
let shape_test id () =
  match Registry.find id with
  | None -> Alcotest.failf "missing %s" id
  | Some e ->
    let _body, held = e.Experiment.run () in
    Alcotest.(check bool) (id ^ " shape holds") true held

let fast_ids =
  [ "E4"; "E6"; "E7"; "E8"; "E11"; "E14"; "E15"; "E16"; "E18"; "E19"; "E20";
    "E21"; "E22"; "E23"; "E24"; "E25"; "E26"; "E27"; "E28"; "E29"; "E30" ]

let test_render_wraps () =
  match Registry.find "E6" with
  | None -> Alcotest.fail "missing E6"
  | Some e ->
    let body = (Experiment.run e).Experiment.output in
    Alcotest.(check bool) "has header" true
      (String.length body > 0
      && String.sub body 0 5 = "## E6");
    Alcotest.(check bool) "has shape line" true
      (let needle = "shape check:" in
       let n = String.length body and m = String.length needle in
       let rec search i =
         i + m <= n && (String.sub body i m = needle || search (i + 1))
       in
       search 0)

(* The rendered E27-E30 blocks at the default fault seed, pinned by
   MD5: the transport, fault and self-healing experiments share
   simulation code with the chaos scenarios, and any change to it must
   leave these bytes alone.  E27 is the only run of [Transport] without
   a retry policy. *)
let test_render_pinned () =
  Tussle_fault.Seed.set Tussle_fault.Seed.default;
  List.iter
    (fun (id, md5) ->
      match Registry.find id with
      | None -> Alcotest.failf "missing %s" id
      | Some e ->
        let body = (Experiment.run e).Experiment.output in
        Alcotest.(check string) (id ^ " render md5") md5
          (Digest.to_hex (Digest.string body)))
    [ ("E27", "31c7eb77c323b54e4f90c9777c7c79c1");
      ("E28", "26e0dc6f44fdf18c582deadd79859fa9");
      ("E29", "de407dd7966c4107d32db017a8fab3c7");
      ("E30", "80fcbd35539c08c3b130ecacb4e818cd") ]

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "metadata" `Quick test_metadata_nonempty;
          Alcotest.test_case "render wraps" `Quick test_render_wraps;
          Alcotest.test_case "E28-E30 renders pinned" `Quick test_render_pinned;
        ] );
      ( "shape-checks",
        List.map
          (fun id -> Alcotest.test_case (id ^ " holds") `Slow (shape_test id))
          fast_ids );
    ]
