(* Tests for the experiment registry: ids, lookup, the render and
   allocation pins of the whole battery, and the shape checks of the
   cheap experiments. *)

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

(* Every rendered block of the battery at the default fault seed,
   pinned by MD5, so a change that means to leave the battery's stdout
   byte-identical is checked by the tier-1 suite itself.  E27-E30 share
   simulation code with the chaos scenarios; E27 is the only run of
   [Transport] without a retry policy.

   Beside each MD5, the [allocated_bytes] of the same run, on one
   domain (E28-E30's nested maps then run inline, so all their work
   counts) and in this binary's order.  The figure repeats exactly; it
   moves by up to 1.6% (E12) when the experiments before it in the
   process change, since its window inherits their major heap.  A run
   more than 5% off its pin fails: a change that moves allocation on
   purpose re-pins the figure the failure prints. *)
let render_pins =
  [ ("E1", "789e9b8c12d27862dd24c97f5c74c34f", 36_036_059);
    ("E2", "a0208764a70395ecabe6eea7933f3fe8", 4_260_396);
    ("E3", "4197d0e937e9ee10aa02e82805f8454e", 44_836_418);
    ("E4", "af4799f0bf0e2066921c3e662a0eedb6", 40_250);
    ("E5", "9615625862e85ef6ad64ef9e404e6b85", 2_304_715);
    ("E6", "9955fd2d1396145bc8d43949125cc151", 1_910);
    ("E7", "1ce30ec81ba6c9a7fd2a67e78622e3a7", 54_802);
    ("E8", "7d0c91a1576583c74a6449eb5d61fe70", 245_187);
    ("E9", "d1a06143ba4e8af97544c80c5cb0e74e", 2_334_517);
    ("E10", "a3965f9599157140f3fd5b388f8aed8b", 237_905);
    ("E11", "da181063ced3e0045dc63c83c4d49d03", 6_324_049);
    ("E12", "9a96bcd527b51f7838a8d93216ca2663", 58_017_426);
    ("E13", "f44ceec8dfd40615777a546d6e31e551", 162_198);
    ("E14", "314cc4a9a08207ee65f0af330d67ee4f", 4_235_818);
    ("E15", "8b90b3248ea084cffe1654d4c06ea72a", 244_892);
    ("E16", "dfcb23d33726ed2f25be9adafcb8f8e2", 28_189);
    ("E17", "57db1675785eb240b44611d70429f174", 57_457);
    ("E18", "c6ab5377f3fc1df35fa3dea816d3212d", 1_533);
    ("E19", "330e6b728bf4ffde4cc1edc823f87d38", 3_650);
    ("E20", "4c7108bed406baeb14729e8d2480ba3d", 44_265_421);
    ("E21", "40697fe7266c72de00fd9458325d99c5", 4_289);
    ("E22", "5bc4270435ce6c5aa9f9268bd1c1b658", 1_854);
    ("E23", "77ebfc4e34635a047287d2642e67a3bb", 2_274);
    ("E24", "8f12e46e5c97a4131220999c7d826515", 56_573);
    ("E25", "e0643128470a65c1aebab6c3c0c01421", 2_066);
    ("E26", "ad5fd4b024aa75f7105d5153c9cdb7a8", 2_519);
    ("E27", "31c7eb77c323b54e4f90c9777c7c79c1", 67_551_001);
    ("E28", "26e0dc6f44fdf18c582deadd79859fa9", 2_161_678);
    ("E29", "de407dd7966c4107d32db017a8fab3c7", 2_173_525);
    ("E30", "80fcbd35539c08c3b130ecacb4e818cd", 6_324_243) ]

let alloc_tolerance = 0.05

let test_render_pinned () =
  Tussle_fault.Seed.set Tussle_fault.Seed.default;
  Budget.with_domains 1 @@ fun () ->
  List.iter
    (fun e ->
      let id = e.Experiment.id in
      match List.find_opt (fun (pid, _, _) -> pid = id) render_pins with
      | None -> Alcotest.failf "%s has no pinned render" id
      | Some (_, md5, bytes) ->
        let o = Experiment.run e in
        Alcotest.(check string) (id ^ " render md5") md5
          (Digest.to_hex (Digest.string o.Experiment.output));
        (* allocation is only counted exactly in native code *)
        let pin = float_of_int bytes and got = o.Experiment.allocated_bytes in
        if
          Sys.backend_type = Sys.Native
          && Float.abs (got -. pin) > alloc_tolerance *. pin
        then
          Alcotest.failf "%s allocated %.0f bytes, pinned %.0f (%+.2f%%, limit \
                          %.0f%%)"
            id got pin
            (100.0 *. (got -. pin) /. pin)
            (100.0 *. alloc_tolerance))
    Registry.all

let () =
  Alcotest.run "experiments"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "metadata" `Quick test_metadata_nonempty;
          Alcotest.test_case "render wraps" `Quick test_render_wraps;
          Alcotest.test_case "E1-E30 renders pinned" `Quick test_render_pinned;
        ] );
      ( "shape-checks",
        List.map
          (fun id -> Alcotest.test_case (id ^ " holds") `Slow (shape_test id))
          fast_ids );
    ]
