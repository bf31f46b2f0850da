(* Tests for tussle.fault: plan validation, seeded plan generation,
   injection compiled to engine events, determinism guards (same seed =
   byte-identical output, like PR 2's telemetry guard), and the
   per-experiment watchdog. *)

module Rng = Tussle_prelude.Rng
module Graph = Tussle_prelude.Graph
module Engine = Tussle_netsim.Engine
module Link = Tussle_netsim.Link
module Net = Tussle_netsim.Net
module Packet = Tussle_netsim.Packet
module Topology = Tussle_netsim.Topology
module Traffic = Tussle_netsim.Traffic
module Diagnosis = Tussle_netsim.Diagnosis
module Plan = Tussle_fault.Plan
module Inject = Tussle_fault.Inject
module Seed = Tussle_fault.Seed
module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry
module E28 = Tussle_experiments.E28_faults
module Scenario = Tussle_chaos.Scenario

(* ---------- Plan ---------- *)

let test_plan_validation () =
  let w = Plan.window 1.0 2.0 in
  Plan.validate [ Plan.Link_down { u = 0; v = 1; w } ];
  Alcotest.check_raises "negative node"
    (Invalid_argument "Fault plan: negative node id") (fun () ->
      Plan.validate [ Plan.Blackhole { node = -1; w } ]);
  Alcotest.check_raises "reversed window"
    (Invalid_argument "Fault plan: window must end after it starts")
    (fun () ->
      Plan.validate [ Plan.Link_down { u = 0; v = 1; w = Plan.window 2.0 1.0 } ]);
  Alcotest.check_raises "negative start"
    (Invalid_argument "Fault plan: window start must be finite and >= 0")
    (fun () ->
      Plan.validate
        [ Plan.Link_down { u = 0; v = 1; w = Plan.window (-1.0) 1.0 } ]);
  Alcotest.check_raises "probability out of range"
    (Invalid_argument "Fault plan: probability outside [0,1]") (fun () ->
      Plan.validate [ Plan.Link_loss { u = 0; v = 1; w; prob = 1.5 } ]);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Fault plan: link endpoints must differ") (fun () ->
      Plan.validate [ Plan.Link_down { u = 3; v = 3; w } ]);
  Alcotest.check_raises "negative spike"
    (Invalid_argument "Fault plan: negative latency spike") (fun () ->
      Plan.validate
        [ Plan.Latency_spike { u = 0; v = 1; w; extra_s = -0.1 } ]);
  (* an infinite window is legal: the fault never clears *)
  Plan.validate [ Plan.Node_crash { node = 2; w = Plan.always } ];
  (* the extended grammar validates too, with its own guards *)
  Plan.validate
    [
      Plan.Gray_loss { u = 0; v = 1; w; prob = 0.5 };
      Plan.Unidirectional_down { u = 1; v = 0; w };
      Plan.Link_flap { u = 0; v = 1; w; period_s = 0.25; duty = 0.5 };
      Plan.Blackhole { node = 2; w = Plan.always };
    ];
  Alcotest.check_raises "gray probability out of range"
    (Invalid_argument "Fault plan: probability outside [0,1]") (fun () ->
      Plan.validate [ Plan.Gray_loss { u = 0; v = 1; w; prob = -0.1 } ]);
  Alcotest.check_raises "uni self loop"
    (Invalid_argument "Fault plan: link endpoints must differ") (fun () ->
      Plan.validate [ Plan.Unidirectional_down { u = 2; v = 2; w } ]);
  Alcotest.check_raises "flap must have a finite window"
    (Invalid_argument "Fault plan: flap window must be finite") (fun () ->
      Plan.validate
        [ Plan.Link_flap
            { u = 0; v = 1; w = Plan.always; period_s = 0.25; duty = 0.5 } ]);
  Alcotest.check_raises "flap period must be positive"
    (Invalid_argument "Fault plan: flap period must be finite and positive")
    (fun () ->
      Plan.validate
        [ Plan.Link_flap { u = 0; v = 1; w; period_s = 0.0; duty = 0.5 } ]);
  Alcotest.check_raises "flap duty must be interior"
    (Invalid_argument "Fault plan: flap duty outside (0,1)") (fun () ->
      Plan.validate
        [ Plan.Link_flap { u = 0; v = 1; w; period_s = 0.25; duty = 1.0 } ])

let test_plan_random_deterministic () =
  let links = [ (0, 1); (1, 2) ] in
  let draw seed =
    Plan.to_string
      (Plan.random (Rng.create seed) ~links ~horizon:10.0 ~episodes:5)
  in
  Alcotest.(check string) "same seed, same plan" (draw 42) (draw 42);
  Alcotest.(check bool) "different seed, different plan" true
    (draw 42 <> draw 43);
  (* drawn plans are always well-formed *)
  Plan.validate (Plan.random (Rng.create 42) ~links ~horizon:10.0 ~episodes:50);
  Alcotest.check_raises "no links"
    (Invalid_argument "Plan.random: no links") (fun () ->
      ignore (Plan.random (Rng.create 1) ~links:[] ~horizon:1.0 ~episodes:1))

let flap_over w period_s =
  Plan.Link_flap { u = 0; v = 1; w; period_s; duty = 0.5 }

(* Untrusted plan text must not make a flap of millions of toggles. *)
let test_flap_period_bound () =
  let too_many =
    Invalid_argument "Fault plan: flap window holds more than 10000 periods"
  in
  Alcotest.check_raises "1e-7 s period over one second" too_many (fun () ->
      Plan.validate [ flap_over (Plan.window 0.0 1.0) 1e-7 ]);
  (* counting these toggles would never return: the check divides *)
  Alcotest.check_raises "1e-300 s period over 1e300 s" too_many (fun () ->
      Plan.validate [ flap_over (Plan.window 0.0 1e300) 1e-300 ]);
  Plan.validate [ flap_over (Plan.window 0.0 10_000.0) 1.0 ];
  (* the widest flap the generators make: a full mutation window at
     horizon 10 over the 0.01 s period floor *)
  Plan.validate
    [ flap_over (Plan.window 0.0 (Plan.mutation_horizon_factor *. 10.0)) 0.01 ]

let flap_periods (p : Plan.t) =
  List.fold_left
    (fun m -> function
      | Plan.Link_flap { w; period_s; _ } ->
        Float.max m ((w.Plan.until_s -. w.Plan.from_s) /. period_s)
      | _ -> m)
    0.0 p

(* Every mutant validates, whatever the horizon: a flap at the bound
   that a mutation would widen or speed up past it has its period
   raised instead.  At horizon 10 the period floor keeps mutants under
   4,000 periods, so the raise never touches them. *)
let test_mutate_keeps_flaps_bounded () =
  let links = [ (0, 1); (1, 2) ] in
  let at_bound = flap_over (Plan.window 0.0 10_000.0) 1.0 in
  for seed = 0 to 499 do
    Plan.validate
      (Plan.mutate (Rng.create seed) ~links ~horizon:10_000.0 [ at_bound ])
  done;
  List.iter
    (fun horizon ->
      let rng = Rng.create 7 in
      let plan = ref (Plan.random rng ~links ~horizon ~episodes:3) in
      for _ = 1 to 300 do
        plan := Plan.mutate rng ~links ~horizon !plan;
        Plan.validate !plan;
        if horizon = 10.0 && flap_periods !plan > 4000.001 then
          Alcotest.failf "horizon 10: a mutant flap holds %g periods"
            (flap_periods !plan)
      done)
    [ 1e-3; 1.0; 10.0; 1e6 ];
  let widest =
    [ flap_over (Plan.window 0.0 (Plan.mutation_horizon_factor *. 10.0)) 0.01 ]
  in
  for seed = 0 to 199 do
    let m = Plan.mutate (Rng.create seed) ~links ~horizon:10.0 widest in
    if flap_periods m > 4000.001 then
      Alcotest.failf "seed %d: %g periods" seed (flap_periods m)
  done

(* ---------- Plan serialization (the chaos corpus wire format) ---------- *)

let every_constructor_plan =
  [
    Plan.Link_down { u = 0; v = 1; w = Plan.window 0.0 1.0 };
    Plan.Link_loss { u = 1; v = 2; w = Plan.window 0.1 0.5; prob = 0.2 };
    Plan.Link_corrupt { u = 2; v = 3; w = Plan.window 1.0 6.0; prob = 1.0 };
    Plan.Latency_spike
      { u = 0; v = 3; w = Plan.window 0.3 0.8; extra_s = 0.0123456789 };
    Plan.Node_crash { node = 4; w = Plan.always };
    Plan.Middlebox_break { node = 5; w = Plan.window 2.0 infinity; covert = true };
    Plan.Middlebox_break
      { node = 6; w = Plan.window 0.25 0.75; covert = false };
    Plan.Gray_loss { u = 1; v = 2; w = Plan.window 0.5 2.5; prob = 0.75 };
    Plan.Unidirectional_down { u = 2; v = 1; w = Plan.window 0.0 4.0 };
    Plan.Link_flap
      { u = 0; v = 1; w = Plan.window 1.0 3.0; period_s = 0.5; duty = 0.25 };
    Plan.Blackhole { node = 3; w = Plan.window 0.5 infinity };
  ]

let test_plan_string_roundtrip_by_hand () =
  (match Plan.of_string (Plan.to_string every_constructor_plan) with
  | Ok p ->
    Alcotest.(check bool) "all constructors round-trip" true
      (p = every_constructor_plan)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* awkward floats survive the trip losslessly *)
  let nasty =
    [
      Plan.Link_loss
        { u = 0; v = 1; w = Plan.window 0.1 (0.1 +. 0.2); prob = 1.0 /. 3.0 };
      Plan.Latency_spike
        { u = 0; v = 1; w = Plan.window epsilon_float 1e17; extra_s = 1e-9 };
    ]
  in
  (match Plan.of_string (Plan.to_string nasty) with
  | Ok p -> Alcotest.(check bool) "nasty floats exact" true (p = nasty)
  | Error e -> Alcotest.failf "nasty round-trip failed: %s" e);
  (* the empty plan is one of the fixed points too *)
  (match Plan.of_string (Plan.to_string []) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty plan grew episodes"
  | Error e -> Alcotest.failf "empty round-trip failed: %s" e);
  (* blank lines and # comments are skipped: corpus headers ride along *)
  match
    Plan.of_string
      ("# corpus header\n\n" ^ Plan.to_string every_constructor_plan ^ "\n\n")
  with
  | Ok p ->
    Alcotest.(check bool) "comments + blanks skipped" true
      (p = every_constructor_plan)
  | Error e -> Alcotest.failf "commented round-trip failed: %s" e

let test_plan_of_string_errors () =
  let expect_error_naming line s =
    match Plan.of_string s with
    | Ok _ -> Alcotest.failf "parsed garbage: %S" s
    | Error e ->
      let prefix = Printf.sprintf "line %d:" line in
      Alcotest.(check bool)
        (Printf.sprintf "error names %s in %S" prefix e)
        true
        (String.length e >= String.length prefix
        && String.sub e 0 (String.length prefix) = prefix)
  in
  expect_error_naming 1 "wibble";
  expect_error_naming 2 "link 0-1 down [0, 1)\nlink one-2 down [0, 1)";
  expect_error_naming 3 "# ok\nlink 0-1 down [0, 1)\nlink 0-1 loss p=x [0, 1)"

let plan_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* episodes = int_range 0 12 in
    return (seed, episodes))

let prop_random_plans_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string p) = Ok p on random plans"
    ~count:200 plan_gen (fun (seed, episodes) ->
      let links = [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
      let p =
        Plan.random (Rng.create seed) ~links ~horizon:25.0 ~episodes
      in
      Plan.of_string (Plan.to_string p) = Ok p)

let prop_random_plans_validate =
  QCheck2.Test.make ~name:"random plans always pass validate" ~count:200
    plan_gen (fun (seed, episodes) ->
      let links = [ (0, 1); (1, 2) ] in
      Plan.validate
        (Plan.random (Rng.create seed) ~links ~horizon:50.0 ~episodes);
      true)

(* ---------- Plan.of_string fuzz ---------- *)

(* Bitwise: [=] has nan <> nan and -0.0 = 0.0; marshalled bytes carry
   every float's bits. *)
let plan_bits (p : Plan.t) = Marshal.to_string p [ Marshal.No_sharing ]

(* "line N: MSG" with N a line of [s] *)
let names_a_line s msg =
  match String.index_opt msg ':' with
  | Some i when String.starts_with ~prefix:"line " msg -> (
    match int_of_string_opt (String.sub msg 5 (i - 5)) with
    | Some n ->
      n >= 1
      && n <= List.length (String.split_on_char '\n' s)
      && String.length msg > i + 1
      && msg.[i + 1] = ' '
    | None -> false)
  | _ -> false

(* What every input must do: parse to a plan that survives
   [to_string] bit for bit, or name the offending line; never raise. *)
let of_string_contract s =
  match Plan.of_string s with
  | exception e ->
    QCheck2.Test.fail_reportf "of_string %S raised %s" s (Printexc.to_string e)
  | Error msg ->
    names_a_line s msg
    || QCheck2.Test.fail_reportf "of_string %S: error %S names no line" s msg
  | Ok p -> (
    let text = Plan.to_string p in
    match Plan.of_string text with
    | Ok q when plan_bits q = plan_bits p -> true
    | Ok _ ->
      QCheck2.Test.fail_reportf "of_string %S: re-parsing %S changed the plan"
        s text
    | Error msg ->
      QCheck2.Test.fail_reportf "of_string %S: re-parsing %S failed: %s" s text
        msg
    | exception e ->
      QCheck2.Test.fail_reportf "of_string %S: re-parsing %S raised %s" s text
        (Printexc.to_string e))

(* Lexemes the grammar's number slots might meet: special floats
   (nan with and without payload or sign, infinities, -0, overflow to
   inf, subnormals), and integer spellings OCaml accepts or rejects
   (hex, binary, unsigned, underscores, signs, 2^62 overflow). *)
let float_lexemes =
  [ "0"; "0.5"; "1"; "2.5"; "nan"; "-nan"; "+nan"; "nan(123)"; "-nan(7)";
    "NaN"; "inf"; "-inf"; "infinity"; "-0"; "-0.0"; "1e309"; "-1e309";
    "4.9e-324"; "1.7976931348623157e308"; "0x1p-3"; "1_0"; "+1"; ".5";
    "5."; "1e"; "--1"; "0.1.2"; "" ]

let int_lexemes =
  [ "0"; "1"; "2"; "-1"; "+3"; "0x10"; "0b11"; "0o7"; "0u1"; "1_000";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "0x7fffffffffffffff"; "1.5"; "a"; "" ]

(* Bytes plan text is made of, plus a few it never is. *)
let plan_alphabet =
  "linkdowsprcathlmbxgyvefu-> []()=,.+#0123456789\n\t\r_\x00\x80\xff"

let plan_tokens =
  [ "link "; "node "; "middlebox "; " down "; " loss "; " corrupt ";
    " latency "; " gray "; " flap "; " crash "; " blackhole "; " covert ";
    " revealing "; "->"; "-"; "p="; "period="; "duty="; "+"; "s"; "[";
    ", "; ")"; "\n"; "# "; "  " ]
  @ float_lexemes

let gen_plan_char =
  QCheck2.Gen.(
    frequency
      [ (3, map (String.get plan_alphabet) (int_bound (String.length plan_alphabet - 1)));
        (1, char) ])

(* [doc] with up to three edits: a byte replaced, a byte or grammar
   token inserted, a byte deleted, or the tail cut off. *)
let gen_edited doc =
  QCheck2.Gen.(
    let edit doc =
      let n = String.length doc in
      int_bound n >>= fun i ->
      gen_plan_char >>= fun c ->
      oneofl plan_tokens >>= fun tok ->
      oneofl
        [
          (if i < n then String.mapi (fun j d -> if j = i then c else d) doc else doc);
          String.sub doc 0 i ^ String.make 1 c ^ String.sub doc i (n - i);
          String.sub doc 0 i ^ tok ^ String.sub doc i (n - i);
          (if i < n then String.sub doc 0 i ^ String.sub doc (i + 1) (n - i - 1) else doc);
          String.sub doc 0 i;
        ]
    in
    int_range 0 3 >>= fun edits ->
    let rec apply k doc = if k = 0 then pure doc else edit doc >>= apply (k - 1) in
    apply edits doc)

let gen_random_plan_text =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* episodes = int_range 0 6 in
    let links = [ (0, 1); (1, 2); (12, 3) ] in
    let* plan =
      oneofl
        [ Plan.random (Rng.create seed) ~links ~horizon:25.0 ~episodes;
          every_constructor_plan ]
    in
    gen_edited (Plan.to_string plan))

(* One episode of every shape with its number slots drawn from the
   lexeme pools, several to a document, then edited. *)
let gen_lexeme_plan_text =
  QCheck2.Gen.(
    let f = oneofl float_lexemes and i = oneofl int_lexemes in
    let window = map2 (Printf.sprintf "[%s, %s)") f f in
    let episode =
      oneof
        [
          map3 (Printf.sprintf "link %s-%s down %s") i i window;
          map3 (Printf.sprintf "link %s->%s down %s") i i window;
          map3
            (fun (u, v) (kind, p) w -> Printf.sprintf "link %s-%s %s p=%s %s" u v kind p w)
            (pair i i) (pair (oneofl [ "loss"; "corrupt"; "gray" ]) f) window;
          map3 (fun (u, v) x w -> Printf.sprintf "link %s-%s latency +%ss %s" u v x w)
            (pair i i) f window;
          map3
            (fun (u, v) (per, duty) w ->
              Printf.sprintf "link %s-%s flap period=%ss duty=%s %s" u v per duty w)
            (pair i i) (pair f f) window;
          map3 (Printf.sprintf "node %s %s %s") i (oneofl [ "crash"; "blackhole" ]) window;
          map3 (Printf.sprintf "middlebox %s %s %s") i (oneofl [ "covert"; "revealing" ])
            window;
        ]
    in
    list_size (int_range 1 4) episode >>= fun eps ->
    gen_edited (String.concat "\n" eps))

let gen_arbitrary_bytes = QCheck2.Gen.(string_size ~gen:gen_plan_char (int_range 0 60))

(* Inputs the properties below once failed on. *)
let test_of_string_pinned () =
  List.iter
    (fun s -> ignore (of_string_contract s))
    [
      (* a nan payload the emitter cannot print must not survive the
         parse, or the re-parsed plan differs in its bits *)
      "node 0b11 blackhole [+nan, nan(123))\nmiddlebox 0o7 revealing [-0, 1)";
      "link 0-1 loss p=-nan(7) [0, 1)";
      (* a hex spelling past max_int wraps to node -1, which "u-v"
         cannot print: a parse error *)
      "link 0u1-0x7fffffffffffffff flap period=0.5s duty=.5 [1_0, -0)";
    ];
  List.iter
    (fun s ->
      match Plan.of_string s with
      | Error m -> Alcotest.(check bool) m true (names_a_line s m)
      | Ok _ -> Alcotest.failf "negative node id parsed: %S" s)
    [ "link 0x7fffffffffffffff-1 down [0, 1)";
      "link 0x4000000000000000->1 down [0, 1)"; "node -1 crash [0, 1)" ];
  match Plan.of_string "link 0-1 loss p=-nan(7) [nan(1), 1e309)" with
  | Ok [ Plan.Link_loss { prob; w; _ } ] ->
    Alcotest.(check int64) "sign kept, payload dropped"
      (Int64.bits_of_float (float_of_string "-nan")) (Int64.bits_of_float prob);
    Alcotest.(check int64) "canonical nan"
      (Int64.bits_of_float (float_of_string "nan"))
      (Int64.bits_of_float w.Plan.from_s);
    Alcotest.(check (float 0.0)) "1e309 is inf" infinity w.Plan.until_s
  | _ -> Alcotest.fail "expected one loss episode"

(* Unshrunk, like the Json parse properties: the failure message
   already names the input. *)
let prop_of_string_contract name gen =
  QCheck2.Test.make ~name ~count:2000 ~print:String.escaped (QCheck2.Gen.no_shrink gen)
    of_string_contract

let prop_of_string_bytes =
  prop_of_string_contract "of_string contract (arbitrary bytes)" gen_arbitrary_bytes

let prop_of_string_edited =
  prop_of_string_contract "of_string contract (edited to_string output)"
    gen_random_plan_text

let prop_of_string_lexemes =
  prop_of_string_contract "of_string contract (number lexemes)" gen_lexeme_plan_text

(* ---------- Inject ---------- *)

let line_forwarding ~node ~target _ =
  if target > node then Some (node + 1)
  else if target < node then Some (node - 1)
  else None

let two_node_net () =
  Net.create (Topology.to_links (Topology.line 2)) line_forwarding

(* inject one packet id [id] from 0 to [dst] at engine time [at] *)
let send_at net engine ~id ~dst at =
  Engine.schedule engine at (fun engine ->
      Net.inject net engine
        (Packet.make ~id ~src:0 ~dst ~created:at ()))

let test_inject_down_window () =
  let net = two_node_net () in
  let log = Completed.record net in
  let engine = Engine.create () in
  Inject.install ~seed:1
    ~plan:[ Plan.Link_down { u = 0; v = 1; w = Plan.window 1.0 2.0 } ]
    engine net;
  send_at net engine ~id:0 ~dst:1 0.5;
  send_at net engine ~id:1 ~dst:1 1.5;
  send_at net engine ~id:2 ~dst:1 2.5;
  Engine.run engine;
  (match Completed.outcome_of log 0 with
  | Some (Net.Delivered _) -> ()
  | _ -> Alcotest.fail "before the window: delivered");
  (match Completed.outcome_of log 1 with
  | Some (Net.Lost (Net.Link_down (0, 1))) -> ()
  | _ -> Alcotest.fail "inside the window: lost to link-down");
  (match Completed.outcome_of log 2 with
  | Some (Net.Delivered _) -> ()
  | _ -> Alcotest.fail "after the window: delivered");
  Alcotest.(check (list (pair string int))) "attributed"
    [ ("link-down", 1) ]
    (Net.losses_by_label (Net.losses net))

let test_inject_loss_deterministic () =
  let run () =
    let net = two_node_net () in
    let log = Completed.record net in
    let engine = Engine.create () in
    Inject.install ~seed:9
      ~plan:
        [ Plan.Link_loss { u = 0; v = 1; w = Plan.window 0.0 5.0; prob = 0.5 } ]
      engine net;
    for i = 0 to 19 do
      send_at net engine ~id:i ~dst:1 (0.1 +. (0.2 *. float_of_int i))
    done;
    Engine.run engine;
    List.map
      (fun ((p : Packet.t), o) ->
        (p.Packet.id, match o with Net.Delivered _ -> "ok" | Net.Lost _ -> "lost"))
      (log ())
  in
  let a = run () and b = run () in
  Alcotest.(check (list (pair int string))) "same seed, same fates" a b;
  Alcotest.(check bool) "some lost, some delivered" true
    (List.exists (fun (_, f) -> f = "lost") a
    && List.exists (fun (_, f) -> f = "ok") a)

let test_inject_latency_spike () =
  let net = two_node_net () in
  let log = Completed.record net in
  let engine = Engine.create () in
  Inject.install ~seed:1
    ~plan:
      [ Plan.Latency_spike
          { u = 0; v = 1; w = Plan.window 1.0 2.0; extra_s = 0.5 } ]
    engine net;
  send_at net engine ~id:0 ~dst:1 0.5;
  send_at net engine ~id:1 ~dst:1 1.5;
  Engine.run engine;
  let latency id =
    match Completed.outcome_of log id with
    | Some (Net.Delivered { latency; _ }) -> latency
    | _ -> Alcotest.fail "expected delivery"
  in
  Alcotest.(check bool) "spike adds latency" true
    (latency 1 -. latency 0 > 0.49)

let test_inject_unknown_link () =
  let net = two_node_net () in
  let engine = Engine.create () in
  Alcotest.check_raises "no such link"
    (Invalid_argument "Inject.install: no link between 0 and 5") (fun () ->
      Inject.install ~seed:1
        ~plan:[ Plan.Link_down { u = 0; v = 5; w = Plan.always } ]
        engine net)

let test_inject_gray_window () =
  (* gray loss: the link stays administratively up — hellos and the
     routing layer see nothing — while data in the window dies *)
  let net = two_node_net () in
  let log = Completed.record net in
  let engine = Engine.create () in
  Inject.install ~seed:4
    ~plan:
      [ Plan.Gray_loss { u = 0; v = 1; w = Plan.window 1.0 2.0; prob = 1.0 } ]
    engine net;
  send_at net engine ~id:0 ~dst:1 0.5;
  send_at net engine ~id:1 ~dst:1 1.5;
  send_at net engine ~id:2 ~dst:1 2.5;
  Engine.run engine;
  (match Completed.outcome_of log 0 with
  | Some (Net.Delivered _) -> ()
  | _ -> Alcotest.fail "before the window: delivered");
  (match Completed.outcome_of log 1 with
  | Some (Net.Lost (Net.Gray_loss (0, 1))) -> ()
  | _ -> Alcotest.fail "inside the window: grayed out");
  (match Completed.outcome_of log 2 with
  | Some (Net.Delivered _) -> ()
  | _ -> Alcotest.fail "after the window: delivered");
  Alcotest.(check (list (pair string int))) "attributed as gray-loss"
    [ ("gray-loss", 1) ]
    (Net.losses_by_label (Net.losses net));
  (* the links' own covert counter agrees with the attribution, and
     the link never went down: liveness looks clean throughout *)
  let distinct_links =
    let seen = ref [] in
    Graph.iter_edges (Net.links net) (fun _ _ l ->
        if not (List.memq l !seen) then seen := l :: !seen);
    !seen
  in
  Alcotest.(check int) "link counted the gray drop" 1
    (List.fold_left (fun acc l -> acc + Link.gray_drops l) 0 distinct_links);
  Alcotest.(check bool) "link stayed up" true
    (List.for_all Link.is_up distinct_links)

let send_from net engine ~id ~src ~dst at =
  Engine.schedule engine at (fun engine ->
      Net.inject net engine (Packet.make ~id ~src ~dst ~created:at ()))

let test_inject_unidirectional () =
  let net = two_node_net () in
  let log = Completed.record net in
  let engine = Engine.create () in
  Inject.install ~seed:1
    ~plan:[ Plan.Unidirectional_down { u = 0; v = 1; w = Plan.window 1.0 2.0 } ]
    engine net;
  send_from net engine ~id:0 ~src:0 ~dst:1 1.5;
  send_from net engine ~id:1 ~src:1 ~dst:0 1.5;
  send_from net engine ~id:2 ~src:0 ~dst:1 2.5;
  Engine.run engine;
  (match Completed.outcome_of log 0 with
  | Some (Net.Lost (Net.Link_down (0, 1))) -> ()
  | _ -> Alcotest.fail "faulted direction: lost");
  (match Completed.outcome_of log 1 with
  | Some (Net.Delivered _) -> ()
  | _ -> Alcotest.fail "reverse direction: delivered");
  match Completed.outcome_of log 2 with
  | Some (Net.Delivered _) -> ()
  | _ -> Alcotest.fail "after the window: delivered"

let test_inject_flap () =
  (* period 1s, duty 0.5 over [0, 2): down [0,0.5) up [0.5,1) down
     [1,1.5) up [1.5,2), restored at 2 *)
  let flap =
    Plan.Link_flap
      { u = 0; v = 1; w = Plan.window 0.0 2.0; period_s = 1.0; duty = 0.5 }
  in
  Alcotest.(check (list (pair (float 0.0) bool))) "toggles"
    [ (0.0, true); (0.5, false); (1.0, true); (1.5, false); (2.0, false) ]
    (Plan.toggles flap);
  Alcotest.(check int) "transitions counts every toggle + restore" 5
    (Plan.transitions [ flap ]);
  let net = two_node_net () in
  let log = Completed.record net in
  let engine = Engine.create () in
  Inject.install ~seed:1 ~plan:[ flap ] engine net;
  List.iteri
    (fun id at -> send_at net engine ~id ~dst:1 at)
    [ 0.25; 0.75; 1.25; 1.75; 2.25 ];
  Engine.run engine;
  let fate id =
    match Completed.outcome_of log id with
    | Some (Net.Delivered _) -> "ok"
    | Some (Net.Lost _) -> "lost"
    | None -> "?"
  in
  Alcotest.(check (list string)) "fates follow the duty cycle"
    [ "lost"; "ok"; "lost"; "ok"; "ok" ]
    (List.map fate [ 0; 1; 2; 3; 4 ])

let test_inject_past_window () =
  let past =
    Invalid_argument "Inject.install: window opens in the engine's past"
  in
  List.iter
    (fun (name, spec, scheduled) ->
      let net = two_node_net () in
      let engine = Engine.create () in
      Engine.run ~until:1.0 engine;
      let install () = Inject.install ~seed:1 ~plan:[ spec ] engine net in
      (match scheduled with
      | None -> Alcotest.check_raises name past install
      | Some _ -> install ());
      Alcotest.(check int) (name ^ ": events scheduled")
        (Option.value scheduled ~default:0)
        (Engine.pending engine))
    [
      ("window", Plan.Link_down { u = 0; v = 1; w = Plan.window 0.5 2.0 }, None);
      ("flap", flap_over (Plan.window 0.5 2.0) 0.5, None);
      (* a window opening now is not in the past *)
      ("window at now", Plan.Link_down { u = 0; v = 1; w = Plan.window 1.0 2.0 },
        Some 2);
    ]

(* A fresh net over [links], one [Link.t] per direction. *)
let net_of_links links =
  let n = 1 + List.fold_left (fun m (u, v) -> max m (max u v)) 0 links in
  let g = Graph.create n in
  List.iter (fun (u, v) -> Graph.add_undirected g u v Topology.default_edge) links;
  Net.create (Topology.to_links g) (fun ~node:_ ~target:_ _ -> None)

(* [install] schedules one event per toggle: what [Plan.transitions]
   counts and the damping-bounds-reconvergence invariant divides by. *)
let test_install_schedules_transitions () =
  let check name links plan =
    let engine = Engine.create () in
    Inject.install ~seed:1 ~plan engine (net_of_links links);
    if Engine.pending engine <> Plan.transitions plan then
      Alcotest.failf "%s: %d events scheduled, %d transitions for\n%s" name
        (Engine.pending engine) (Plan.transitions plan) (Plan.to_string plan)
  in
  List.iter
    (fun (s : Scenario.t) ->
      for seed = 0 to 249 do
        let rng = Rng.create seed in
        let plan =
          ref
            (Plan.random rng ~links:s.links ~horizon:s.horizon
               ~episodes:(1 + Rng.int rng 4))
        in
        check s.name s.links !plan;
        for _ = 1 to 3 do
          plan := Plan.mutate rng ~links:s.links ~horizon:s.horizon !plan;
          check s.name s.links !plan
        done
      done)
    Scenario.all;
  check "hand-built" [ (0, 1); (1, 2) ]
    [
      Plan.Middlebox_break { node = 1; w = Plan.window 0.5 2.0; covert = true };
      Plan.Middlebox_break
        { node = 2; w = Plan.window 1.0 infinity; covert = false };
      Plan.Link_down { u = 0; v = 1; w = Plan.always };
      Plan.Link_loss { u = 1; v = 2; w = Plan.always; prob = 0.5 };
      Plan.Node_crash { node = 1; w = Plan.window 3.0 infinity };
      Plan.Blackhole { node = 0; w = Plan.always };
    ]

let test_inject_blackhole_vs_middlebox () =
  (* satellite: a Byzantine blackhole and a broken middlebox are
     different failures and must stay distinguishable in the ledger *)
  let line4 () =
    Net.create (Topology.to_links (Topology.line 4)) line_forwarding
  in
  let blackhole = line4 () in
  let log = Completed.record blackhole in
  let engine = Engine.create () in
  Inject.install ~seed:2
    ~plan:[ Plan.Blackhole { node = 2; w = Plan.window 0.0 3.0 } ]
    engine blackhole;
  send_at blackhole engine ~id:0 ~dst:3 0.5;
  (* traffic *addressed to* the blackhole is answered: it only eats
     transit — that is what makes it covert to hello-style liveness *)
  send_at blackhole engine ~id:1 ~dst:2 0.5;
  send_at blackhole engine ~id:2 ~dst:3 3.5;
  Engine.run engine;
  (match Completed.outcome_of log 0 with
  | Some (Net.Lost (Net.Blackholed 2)) -> ()
  | _ -> Alcotest.fail "transit traffic: silently discarded");
  (match Completed.outcome_of log 1 with
  | Some (Net.Delivered _) -> ()
  | _ -> Alcotest.fail "traffic to the blackhole: answered");
  (match Completed.outcome_of log 2 with
  | Some (Net.Delivered _) -> ()
  | _ -> Alcotest.fail "after the window: delivered");
  Alcotest.(check (list (pair string int))) "attributed as blackholed"
    [ ("blackholed", 1) ]
    (Net.losses_by_label (Net.losses blackhole));
  let filtered = line4 () in
  let engine = Engine.create () in
  Inject.install ~seed:2
    ~plan:[ Plan.Middlebox_break { node = 2; w = Plan.always; covert = true } ]
    engine filtered;
  send_at filtered engine ~id:0 ~dst:3 0.5;
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "a broken device confesses differently"
    [ ("filtered:" ^ Plan.broken_device_name, 1) ]
    (Net.losses_by_label (Net.losses filtered))

let test_net_probe_against_covert_injection () =
  (* E28's substrate: Diagnosis.net_probe must bracket a covert
     injected middlebox failure and localize a revealing one exactly *)
  let diagnose covert =
    let net = Net.create (Topology.to_links (Topology.line 4)) line_forwarding in
    let engine = Engine.create () in
    Inject.install ~seed:5
      ~plan:[ Plan.Middlebox_break { node = 2; w = Plan.always; covert } ]
      engine net;
    let gen = Traffic.create () in
    let make ~target =
      Packet.make ~id:(Traffic.fresh_id gen) ~src:0 ~dst:target
        ~created:(Engine.now engine) ()
    in
    Diagnosis.localize ~probe:(Diagnosis.net_probe net engine ~make)
      ~path:[ 0; 1; 2; 3 ]
  in
  let covert = diagnose true and revealing = diagnose false in
  (match revealing.Diagnosis.verdict with
  | Diagnosis.Blocked_at (name, 2) ->
    Alcotest.(check string) "confessed name" Plan.broken_device_name name
  | _ -> Alcotest.fail "revealing break must be localized exactly");
  Alcotest.(check int) "one probe" 1 revealing.Diagnosis.probes_used;
  (match covert.Diagnosis.verdict with
  | Diagnosis.Blocked_between (1, 2) -> ()
  | _ -> Alcotest.fail "covert break must be bracketed");
  Alcotest.(check bool) "covert costs more probes" true
    (covert.Diagnosis.probes_used > revealing.Diagnosis.probes_used)

(* ---------- determinism guard (PR 2 style) ---------- *)

let with_fault_seed seed f =
  let saved = Seed.get () in
  Seed.set seed;
  Fun.protect ~finally:(fun () -> Seed.set saved) f

let e28 () =
  match Registry.find "E28" with
  | Some e -> e
  | None -> Alcotest.fail "E28 missing from the registry"

let test_e28_deterministic_per_seed () =
  let run () = (Experiment.run (e28 ())).Experiment.output in
  let a = with_fault_seed 2027 run in
  let b = with_fault_seed 2027 run in
  Alcotest.(check string) "same fault seed, byte-identical output" a b;
  let c = with_fault_seed 2028 run in
  Alcotest.(check bool) "different fault seed, different output" true (a <> c)

(* Every fault the sweep injects is counted: each retransmission
   answers exactly one fault drop, at every fault seed. *)
let test_e28_counts_every_fault_drop () =
  for seed = 0 to 99 do
    let held =
      with_fault_seed seed (fun () -> Experiment.held (Experiment.run (e28 ())))
    in
    if not held then Alcotest.failf "E28 shape fails at fault seed %d" seed;
    List.iter
      (fun (r : E28.sweep_result) ->
        if r.E28.fault_drops <> r.E28.retransmissions then
          Alcotest.failf "seed %d plan %d: %d fault drops, %d retransmissions"
            seed r.E28.index r.E28.fault_drops r.E28.retransmissions)
      (E28.faulted_sweep ~fault_seed:seed)
  done;
  let fault_drops seed =
    List.map (fun (r : E28.sweep_result) -> r.E28.fault_drops)
      (E28.faulted_sweep ~fault_seed:seed)
  in
  (* seed 11, plan 6: a blackhole at node 1 eats all 30 drops before the
     fixed outage opens *)
  Alcotest.(check int) "seed 11, plan 6" 30 (List.nth (fault_drops 11) 6);
  Alcotest.(check (list int)) "default seed"
    [ 27; 28; 45; 29; 110; 28; 41; 118 ]
    (fault_drops Seed.default)

(* ---------- watchdog ---------- *)

let quick_experiment =
  {
    Experiment.id = "T1";
    title = "watchdog companion (terminates immediately)";
    paper_claim = "none - test fixture";
    run = (fun () -> ("ran fine\n", true));
    sweep = None;
  }

let output_mentions_timeout o =
  let needle = "FAILED (timeout" and hay = o.Experiment.output in
  let n = String.length hay and m = String.length needle in
  let rec search i =
    i + m <= n && (String.sub hay i m = needle || search (i + 1))
  in
  search 0

let test_watchdog_times_out_hung_experiment () =
  match
    Registry.run_list ~domains:1 ~timeout_s:0.2
      [ Registry.hang_probe; quick_experiment ]
  with
  | [ hung; fine ] ->
    (match hung.Experiment.status with
    | Experiment.Failed _ -> ()
    | _ -> Alcotest.fail "hang probe must fail");
    Alcotest.(check bool) "FAILED (timeout ...) in the body" true
      (output_mentions_timeout hung);
    Alcotest.(check bool) "partial telemetry: wall clock recorded" true
      (hung.Experiment.wall_s >= 0.2);
    (* the battery carried on past the hung experiment *)
    Alcotest.(check bool) "companion still ran" true (Experiment.held fine)
  | _ -> Alcotest.fail "expected two outcomes"

let test_watchdog_passes_fast_experiment_through () =
  let watched = Experiment.run ~timeout_s:30.0 quick_experiment in
  let plain = Experiment.run quick_experiment in
  Alcotest.(check bool) "held" true (Experiment.held watched);
  Alcotest.(check string) "identical output" plain.Experiment.output
    watched.Experiment.output

let test_watchdog_validation () =
  Alcotest.check_raises "non-positive timeout"
    (Invalid_argument "Experiment.run: timeout_s must be positive and finite")
    (fun () -> ignore (Experiment.run ~timeout_s:0.0 quick_experiment))

let test_seed_roundtrip () =
  let saved = Seed.get () in
  Alcotest.(check int) "default" 1031 Seed.default;
  Seed.set 7;
  Alcotest.(check int) "set/get" 7 (Seed.get ());
  Seed.set saved

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "random deterministic" `Quick
            test_plan_random_deterministic;
          Alcotest.test_case "flap period bound" `Quick test_flap_period_bound;
          Alcotest.test_case "mutants keep flaps bounded" `Quick
            test_mutate_keeps_flaps_bounded;
        ] );
      ( "plan-serialization",
        [
          Alcotest.test_case "hand-built round-trips" `Quick
            test_plan_string_roundtrip_by_hand;
          Alcotest.test_case "of_string names bad lines" `Quick
            test_plan_of_string_errors;
          QCheck_alcotest.to_alcotest prop_random_plans_roundtrip;
          QCheck_alcotest.to_alcotest prop_random_plans_validate;
          Alcotest.test_case "of_string pinned inputs" `Quick
            test_of_string_pinned;
          QCheck_alcotest.to_alcotest prop_of_string_bytes;
          QCheck_alcotest.to_alcotest prop_of_string_edited;
          QCheck_alcotest.to_alcotest prop_of_string_lexemes;
        ] );
      ( "inject",
        [
          Alcotest.test_case "down window" `Quick test_inject_down_window;
          Alcotest.test_case "loss deterministic" `Quick
            test_inject_loss_deterministic;
          Alcotest.test_case "latency spike" `Quick test_inject_latency_spike;
          Alcotest.test_case "unknown link" `Quick test_inject_unknown_link;
          Alcotest.test_case "gray window" `Quick test_inject_gray_window;
          Alcotest.test_case "unidirectional down" `Quick
            test_inject_unidirectional;
          Alcotest.test_case "flap duty cycle" `Quick test_inject_flap;
          Alcotest.test_case "window in the past" `Quick test_inject_past_window;
          Alcotest.test_case "one event per transition" `Quick
            test_install_schedules_transitions;
          Alcotest.test_case "blackhole vs broken middlebox" `Quick
            test_inject_blackhole_vs_middlebox;
          Alcotest.test_case "net_probe vs covert injection" `Quick
            test_net_probe_against_covert_injection;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "E28 byte-identical per fault seed" `Slow
            test_e28_deterministic_per_seed;
          Alcotest.test_case "E28 counts every fault drop" `Slow
            test_e28_counts_every_fault_drop;
          Alcotest.test_case "seed roundtrip" `Quick test_seed_roundtrip;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "hung experiment times out" `Quick
            test_watchdog_times_out_hung_experiment;
          Alcotest.test_case "fast experiment unchanged" `Quick
            test_watchdog_passes_fast_experiment_through;
          Alcotest.test_case "validation" `Quick test_watchdog_validation;
        ] );
    ]
