(* Tests for tussle.obs: JSON round-trips, the Json codec against the
   untuned one in [Json_oracle], histogram bucket pins, counter, gauge
   and histogram merging across domains, metric reset and kind clashes,
   the metrics hot path's allocation, span nesting and ring overwrite,
   the ring against a list model and its tie order across domains,
   Chrome trace / battery report well-formedness, the battery-report
   (metrics block included) and flow-trace readers under fuzzing, and
   the guard that telemetry never perturbs battery output. *)

module Json = Tussle_obs.Json
module Metrics = Tussle_obs.Metrics
module Trace = Tussle_obs.Trace
module Flight = Tussle_obs.Flight
module Ring = Tussle_obs.Ring
module Report = Tussle_obs.Report
module Experiment = Tussle_experiments.Experiment
module Registry = Tussle_experiments.Registry
module Pool = Tussle_prelude.Pool
module Plan = Tussle_fault.Plan
module Corpus = Tussle_chaos.Corpus
module Explain = Tussle_chaos.Explain

let obs_off () =
  Metrics.disable ();
  Trace.disable ();
  Metrics.reset ();
  Trace.reset ()

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.List [] ]);
        ("o", Json.Obj [ ("nested", Json.Bool false) ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error msg -> Alcotest.fail msg

let test_json_parse_basics () =
  (match Json.parse "{\"a\": [1, 2.5, \"\\u0041\", null]}" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "A"; Json.Null ]) ])
    -> ()
  | Ok other -> Alcotest.failf "unexpected parse: %s" (Json.to_string other)
  | Error msg -> Alcotest.fail msg);
  (match Json.parse "[1] garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (match Json.parse "{\"a\":}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad object accepted");
  (* a repeated key is kept; lookup finds the first *)
  (match Json.parse "{\"a\": 1, \"b\": 2, \"a\": 3}" with
  | Ok j ->
    Alcotest.(check bool) "first of a repeated key" true (Json.member "a" j = Some (Json.Int 1))
  | Error msg -> Alcotest.fail msg);
  (* non-finite floats serialize as null, keeping output valid JSON *)
  match Json.parse (Json.to_string (Json.Float infinity)) with
  | Ok Json.Null -> ()
  | Ok other -> Alcotest.failf "inf became %s" (Json.to_string other)
  | Error msg -> Alcotest.fail msg

(* ---------- Json against the untuned codec ---------- *)

(* Trees are equal when their floats are equal bit for bit. *)
let rec same_tree a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 same_tree xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && same_tree x y) xs ys
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Str _), _ -> a = b
  | _ -> false

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> same_tree x y
  | Error x, Error y -> x = y
  | _ -> false

let show_result = function
  | Ok t -> "Ok " ^ Json_oracle.to_string ~minify:true t
  | Error e -> "Error " ^ e

(* The float text's edges: the integer path's bounds and sign, the
   %.12g/%.17g split, subnormals, the extremes and non-finite values. *)
let edge_floats =
  [ 0.0; -0.0; 1.0; -1.0; 0.5; 1e12; -1e12; 999999999999.; -999999999999.;
    1e12 +. 1.; 1e11; 5e-324; 2.2250738585072014e-308; max_float; -.max_float;
    min_float; 0.1 +. 0.2; 0.1; 1. /. 3.; 2. ** 53.; -.(2. ** 53.);
    (2. ** 53.) -. 1.; 1e15; 1e16 +. 2.; 123456.789; 1e-5; 1e-7; Float.nan;
    Float.infinity; Float.neg_infinity ]

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        oneofl edge_floats;
        float;
        map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53));
        map (fun i -> float_of_int i /. 1000.) (int_range (-1_000_000) 1_000_000);
        (* Text that differs from its neighbours' in the last digit. *)
        map (fun i -> float_of_int i /. 100.) (int_range 1 19);
      ])

(* Strings over every byte value, and short ones from a small pool so
   that object keys repeat. *)
let gen_string =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:char (int_range 0 12);
        oneofl [ ""; "a"; "sim_t"; "k\"q"; "back\\slash"; "\x00\x1f\x7f\xff" ];
      ])

let gen_leaf floats =
  QCheck2.Gen.(
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i)
          (oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int ] ]);
        map (fun f -> Json.Float f) (oneof [ gen_float; oneofl floats ]);
        map (fun s -> Json.Str s) gen_string;
      ])

(* A small pool of floats per tree makes repeats (the emitter's memo,
   the parser's last-lexeme reuse) common; a chain of up to 40
   containers takes the pretty-printer's indent past 64 columns. *)
let gen_tree =
  QCheck2.Gen.(
    list_size (int_range 1 4) gen_float >>= fun floats ->
    let leaf = gen_leaf floats in
    let tree =
      sized_size (int_range 0 6)
      @@ fix (fun self n ->
             if n = 0 then leaf
             else
               frequency
                 [
                   (1, leaf);
                   (2, map (fun xs -> Json.List xs) (list_size (int_range 0 5) (self (n - 1))));
                   ( 2,
                     map (fun kvs -> Json.Obj kvs)
                       (list_size (int_range 0 5) (pair gen_string (self (n - 1)))) );
                 ])
    in
    let nest t depth =
      List.fold_left
        (fun t i -> if i land 1 = 0 then Json.List [ t ] else Json.Obj [ ("k", t) ])
        t (List.init depth Fun.id)
    in
    map2 nest tree (frequency [ (4, pure 0); (1, int_range 1 40) ]))

(* Every edge float after every other, both ways round, so each pair
   meets in the memo (0.0 and -0.0 share a slot); then the ints whose
   digits or sign an in-place writer could get wrong. *)
let test_json_edge_numbers () =
  let floats = List.map (fun f -> Json.Float f) edge_floats in
  let ints =
    List.map (fun i -> Json.Int i)
      [ 0; 1; -1; 9; -9; 10; -10; 99; 100; -100; 123456789; max_int; min_int; min_int + 1 ]
  in
  let t = Json.List (floats @ List.rev floats @ floats @ ints) in
  Alcotest.(check string) "edge numbers" (Json_oracle.to_string t)
    (Json.to_string t)

let print_tree t = Json_oracle.to_string ~minify:true t

let prop_emit_matches_oracle =
  QCheck2.Test.make ~name:"to_string equals the untuned emitter" ~count:1000
    ~print:print_tree gen_tree (fun t -> Json.to_string t = Json_oracle.to_string t)

(* Bytes a JSON document is made of, plus a few it never is. *)
let json_alphabet = "{}[],:\" \n\t\\/-+.eE0123456789abfnrtuxlsA_\x00\x80\xff"

let gen_alphabet_char =
  QCheck2.Gen.(map (String.get json_alphabet) (int_bound (String.length json_alphabet - 1)))

(* [doc] with up to three edits: a byte replaced, inserted or deleted,
   or the tail cut off. *)
let gen_edited doc =
  QCheck2.Gen.(
    let edit doc =
      let n = String.length doc in
      int_bound (max 0 n) >>= fun i ->
      gen_alphabet_char >>= fun c ->
      oneofl
        [
          (if i < n then String.mapi (fun j d -> if j = i then c else d) doc else doc);
          String.sub doc 0 i ^ String.make 1 c ^ String.sub doc i (n - i);
          (if i < n then String.sub doc 0 i ^ String.sub doc (i + 1) (n - i - 1) else doc);
          String.sub doc 0 i;
        ]
    in
    int_range 0 3 >>= fun edits ->
    let rec apply k doc = if k = 0 then pure doc else edit doc >>= apply (k - 1) in
    apply edits doc)

(* An emitted document, edited. *)
let gen_mutated_doc =
  QCheck2.Gen.(
    pair gen_tree bool >>= fun (t, minify) ->
    gen_edited (Json_oracle.to_string ~minify t))

let gen_alphabet_doc = QCheck2.Gen.(string_size ~gen:gen_alphabet_char (int_range 0 40))

(* A list of tokens drawn from a small per-document pool, so tokens
   repeat and nearly repeat: numbers of up to 21 digits with optional
   fraction and exponent (and stray signs), strings with [\u] escapes
   over hex digits and a few non-hex bytes, and literals. *)
let gen_token_doc =
  QCheck2.Gen.(
    let chars set len = string_size ~gen:(oneofl (List.of_seq (String.to_seq set))) len in
    let digits = chars "0123456789" (int_range 1 21) in
    let number =
      map
        (fun (sign, int, frac, exp) -> sign ^ int ^ frac ^ exp)
        (quad (oneofl [ ""; "-"; "-"; "+"; "--" ]) digits
           (oneof [ pure ""; map (( ^ ) ".") digits; pure "." ])
           (oneof
              [
                pure "";
                map2 ( ^ )
                  (oneofl [ "e"; "E"; "e+"; "e-"; "e+-" ])
                  (chars "0123456789" (int_range 0 3));
              ]))
    in
    let piece =
      oneof
        [
          chars "ab/ " (int_range 1 3);
          map (( ^ ) "\\u") (chars "0123456789abcdefABCDEF_g+" (pure 4));
          oneofl [ "\\n"; "\\\""; "\\/"; "\\x"; "\\u12" ];
        ]
    in
    let str =
      map (fun ps -> "\"" ^ String.concat "" ps ^ "\"") (list_size (int_range 0 3) piece)
    in
    let token =
      frequency [ (4, number); (2, str); (1, oneofl [ "true"; "false"; "null"; "tru" ]) ]
    in
    list_size (int_range 1 4) token >>= fun pool ->
    map (fun ts -> "[" ^ String.concat "," ts ^ "]") (list_size (int_range 1 8) (oneofl pool)))

(* Unshrunk: shrinking through the generators' binds can take
   minutes, and the failure message already names the document. *)
let prop_parse_matches_oracle name gen =
  QCheck2.Test.make ~name ~count:2000 ~print:String.escaped (QCheck2.Gen.no_shrink gen)
    (fun doc ->
      let got = Json.parse doc and want = Json_oracle.parse doc in
      same_result got want
      || QCheck2.Test.fail_reportf "parse %S: %s, oracle %s" doc (show_result got)
           (show_result want))

let prop_parse_mutated =
  prop_parse_matches_oracle "parse equals the untuned parser (edited documents)"
    gen_mutated_doc

let prop_parse_tokens =
  prop_parse_matches_oracle "parse equals the untuned parser (number and escape tokens)"
    gen_token_doc

let prop_parse_alphabet =
  prop_parse_matches_oracle "parse equals the untuned parser (JSON-alphabet bytes)"
    gen_alphabet_doc

(* Number lexemes at the edges of OCaml's int range (-2^62 is
   [min_int], 2^62 one past [max_int]), past it both ways, and not
   integers at all. *)
let int_edge_lexemes =
  [
    "1e19"; "-9.3e18"; "4.6e18"; "-4.6e18"; "1e18"; "4611686018427387903";
    "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "4.611686018427387904e18"; "-4.611686018427387904e18";
    "9.223372036854775807e18"; "-9.223372036854775808e18"; "1.5"; "-0.0";
    "0e0"; "1e309"; "-1e309"; "1e-400";
  ]

(* What [to_int] must give a [Float], worked through [Int64] rather
   than [int_of_float]: the integer, if [f] is one that an OCaml int
   holds. *)
let int_of_float_oracle f =
  if Float.is_integer f && Float.abs f < 0x1p63 then
    let x = Int64.of_float f in
    if
      Int64.compare x (Int64.of_int min_int) >= 0
      && Int64.compare x (Int64.of_int max_int) <= 0
    then Some (Int64.to_int x)
    else None
  else None

let prop_to_int_range =
  QCheck2.Test.make ~name:"to_int: in-range integers only" ~count:1000 ~print:Fun.id
    QCheck2.Gen.(
      oneof
        [
          oneofl int_edge_lexemes;
          map (Printf.sprintf "%.17g")
            (oneof
               [
                 map (fun f -> if Float.is_finite f then f else 0.0) gen_float;
                 map (fun x -> Float.round (x *. 0x1p62)) (float_range (-2.5) 2.5);
               ]);
          map string_of_int int;
        ])
    (fun lexeme ->
      match Json.parse lexeme with
      | Ok (Json.Int n as v) -> Json.to_int v = Some n
      | Ok (Json.Float f as v) -> Json.to_int v = int_of_float_oracle f
      | Error _
        when String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) lexeme
             && int_of_string_opt lexeme = None ->
        true (* an integer literal past the range is a parse error *)
      | Ok _ | Error _ -> QCheck2.Test.fail_reportf "%S is not a number" lexeme)

(* Edges of the number grammar, the escapes and the error offsets, one
   line per input: what [parse] gives, which the untuned parser gives
   too. *)
let test_json_pinned_numbers () =
  let deep = 100_000 in
  let nested = String.make deep '[' ^ String.make deep ']' in
  let cases =
    [
      ("-", Error "JSON parse error at byte 1: bad number");
      ("01", Ok (Json.Int 1));
      ("-.5", Ok (Json.Float (-0.5)));
      ("1e309", Ok (Json.Float Float.infinity));
      ("-1e309", Ok (Json.Float Float.neg_infinity));
      ("4611686018427387904", Error "JSON parse error at byte 19: bad number");
      ("-4611686018427387904", Ok (Json.Int min_int));
      ("4611686018427387903", Ok (Json.Int max_int));
      ("123456789012345678", Ok (Json.Int 123456789012345678));
      ("-0", Ok (Json.Int 0));
      ("1.5e", Error "JSON parse error at byte 4: bad number");
      ("[1.5,1.5,2.5,1.5,1.25,1.26,1e5,1e6]",
       Ok
         (Json.List
            (List.map (fun f -> Json.Float f) [ 1.5; 1.5; 2.5; 1.5; 1.25; 1.26; 1e5; 1e6 ])));
      ("\"\\u0041\\u00e9\\u20AC\"", Ok (Json.Str "A\xc3\xa9\xe2\x82\xac"));
      ("\"\\u0_41\"", Error "JSON parse error at byte 7: bad \\u escape");
      ("\"\\u004\"", Error "JSON parse error at byte 7: bad \\u escape");
      ("\"\\u00\"", Error "JSON parse error at byte 3: truncated \\u escape");
      ("\"abc", Error "JSON parse error at byte 4: unterminated string");
      ("\"a\\", Error "JSON parse error at byte 3: unterminated escape");
      ("[tru]", Error "JSON parse error at byte 1: expected true");
    ]
  in
  List.iter
    (fun (doc, want) ->
      let got = Json.parse doc in
      Alcotest.(check bool)
        (Printf.sprintf "parse %S = %s (got %s)" doc (show_result want) (show_result got))
        true (same_result got want);
      Alcotest.(check bool)
        (Printf.sprintf "oracle agrees on %S" doc)
        true (same_result got (Json_oracle.parse doc)))
    cases;
  (* The overflowing literal reads as infinity and re-emits as null. *)
  (match Json.parse "[1e309,-1e309]" with
  | Ok t ->
    Alcotest.(check string) "1e309 re-emitted" "[\n  null,\n  null\n]" (Json.to_string t)
  | Error e -> Alcotest.fail e);
  (* 10^5 levels parse without a stack overflow; 10^3 re-emit (the
     indented text grows with the square of the depth). *)
  (match Json.parse nested with
  | Error e -> Alcotest.fail e
  | Ok t ->
    Alcotest.(check bool) "deep nesting parses" true
      (Json_oracle.to_string ~minify:true t = nested);
    Alcotest.(check bool) "unclosed deep nesting is an error" true
      (Result.is_error (Json.parse (String.make deep '{'))));
  let t = Json.parse (String.make 1000 '[' ^ String.make 1000 ']') in
  Alcotest.(check (result string string)) "deep nesting re-emits"
    (Result.map Json_oracle.to_string t) (Result.map Json.to_string t)

(* ---------- histogram buckets ---------- *)

let test_bucket_boundaries () =
  let check v expected =
    Alcotest.(check int)
      (Printf.sprintf "bucket_index %g" v)
      expected (Metrics.bucket_index v)
  in
  (* bucket 0 is [0, 1e-9); bucket i >= 1 is [1e-9*2^(i-1), 1e-9*2^i) *)
  check 0.0 0;
  check (-1.0) 0;
  check Float.nan 0;
  check 0.5e-9 0;
  check 1e-9 1;
  check 1.5e-9 1;
  check 2e-9 2;
  check (2e-9 -. 1e-22) 1;
  check 4e-9 3;
  check 1.0 30;
  check 1e30 (Metrics.bucket_count - 1);
  Alcotest.(check (float 1e-24)) "upper 0" 1e-9 (Metrics.bucket_upper 0);
  Alcotest.(check (float 1e-24)) "upper 1" 2e-9 (Metrics.bucket_upper 1);
  Alcotest.(check (float 1e-15)) "upper 30"
    (1e-9 *. 1073741824.0)
    (Metrics.bucket_upper 30);
  (* every sample lands strictly below its bucket's upper bound and at
     or above the previous bucket's *)
  List.iter
    (fun v ->
      let b = Metrics.bucket_index v in
      Alcotest.(check bool) "below upper" true (v < Metrics.bucket_upper b);
      if b > 0 then
        Alcotest.(check bool) "at or above lower" true
          (v >= Metrics.bucket_upper (b - 1)))
    [ 1e-10; 1e-9; 3.7e-9; 1e-6; 0.25; 17.0 ]

(* The [Float.frexp] bucket index that [Metrics.bucket_index] replaced,
   kept as its oracle. *)
let frexp_bucket_index v =
  if not (v >= 1e-9) then 0
  else
    let _, e = Float.frexp (v /. 1e-9) in
    min (Metrics.bucket_count - 1) e

(* Every bit pattern is a float, so random bits reach every exponent,
   subnormals, infinities and NaNs; the fixed cases are each bucket's
   edges and their neighbours, and values whose ratio to the base
   overflows. *)
let prop_bucket_index_matches_frexp =
  let edges =
    List.concat_map
      (fun i ->
        let u = Metrics.bucket_upper i in
        [ u; Float.pred u; Float.succ u; -.u ])
      (List.init (Metrics.bucket_count + 2) Fun.id)
    @ [ 0.0; -0.0; Float.nan; -.Float.nan; infinity; neg_infinity;
        Float.max_float; Float.min_float; 5e-324; 1e300; 1e-300 ]
  in
  QCheck2.Test.make ~name:"bucket index equals the frexp oracle" ~count:2000
    ~print:(Printf.sprintf "%h")
    QCheck2.Gen.(
      oneof [ oneofl edges; map Int64.float_of_bits int64; float ])
    (fun v -> Metrics.bucket_index v = frexp_bucket_index v)

(* ---------- counters and gauges across domains ---------- *)

let test_counter_merge () =
  obs_off ();
  Metrics.enable ();
  let c = Metrics.counter "test.merge_counter" in
  let n_domains = 4 and m = 1000 in
  let spawned =
    Array.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to m do
              Metrics.incr c
            done))
  in
  for _ = 1 to m do
    Metrics.incr c
  done;
  Array.iter Domain.join spawned;
  (match List.assoc_opt "test.merge_counter" (Metrics.snapshot ()) with
  | Some (Metrics.Count total) ->
    Alcotest.(check int) "all increments merged" ((n_domains + 1) * m) total
  | _ -> Alcotest.fail "counter missing from snapshot");
  (* local_count sees only the calling domain's share *)
  Alcotest.(check int) "local share" m (Metrics.local_count c);
  obs_off ()

let test_gauge_merge_and_reset () =
  obs_off ();
  Metrics.enable ();
  let g = Metrics.gauge "test.merge_gauge" in
  Metrics.set g 3.0;
  let d = Domain.spawn (fun () -> Metrics.set g 7.0; Metrics.set g 5.0) in
  Domain.join d;
  (match List.assoc_opt "test.merge_gauge" (Metrics.snapshot ()) with
  | Some (Metrics.Level { max_; sets; _ }) ->
    Alcotest.(check (float 0.0)) "max across domains" 7.0 max_;
    Alcotest.(check int) "sets summed" 3 sets
  | _ -> Alcotest.fail "gauge missing from snapshot");
  Metrics.reset ();
  (match List.assoc_opt "test.merge_gauge" (Metrics.snapshot ()) with
  | Some (Metrics.Level { sets; _ }) -> Alcotest.(check int) "reset" 0 sets
  | _ -> Alcotest.fail "gauge missing after reset");
  obs_off ()

let test_disabled_is_inert () =
  obs_off ();
  let c = Metrics.counter "test.disabled_counter" in
  Metrics.incr c;
  Metrics.add c 100;
  (match List.assoc_opt "test.disabled_counter" (Metrics.snapshot ()) with
  | Some (Metrics.Count n) -> Alcotest.(check int) "no increments recorded" 0 n
  | _ -> Alcotest.fail "counter missing");
  Trace.with_span "test.disabled_span" (fun () -> ());
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.events ()))

let test_histogram_observe () =
  obs_off ();
  Metrics.enable ();
  let h = Metrics.histogram "test.hist" in
  Metrics.observe h 1e-9;
  Metrics.observe h 1.5e-9;
  Metrics.observe h 0.25;
  (match List.assoc_opt "test.hist" (Metrics.snapshot ()) with
  | Some (Metrics.Dist { count; sum; buckets; p50; p90; p99 }) ->
    Alcotest.(check int) "count" 3 count;
    Alcotest.(check (float 1e-12)) "sum" (0.25 +. 2.5e-9) sum;
    Alcotest.(check (list (pair int int)))
      "buckets" [ (1, 2); (Metrics.bucket_index 0.25, 1) ] buckets;
    (* 3 samples: p50 falls in the first bucket (2 of 3 samples),
       p90/p99 in the bucket holding the 0.25 sample *)
    Alcotest.(check (float 1e-24)) "p50" (Metrics.bucket_upper 1) p50;
    Alcotest.(check (float 1e-12)) "p90"
      (Metrics.bucket_upper (Metrics.bucket_index 0.25)) p90;
    Alcotest.(check (float 1e-12)) "p99"
      (Metrics.bucket_upper (Metrics.bucket_index 0.25)) p99
  | _ -> Alcotest.fail "histogram missing");
  obs_off ()

let test_histogram_merge () =
  obs_off ();
  Metrics.enable ();
  let h = Metrics.histogram "test.merge_hist" in
  Metrics.observe h 1e-9;
  Metrics.observe h 0.25;
  let d =
    Domain.spawn (fun () ->
        Metrics.observe h 1.5e-9;
        Metrics.observe h 0.5)
  in
  Domain.join d;
  (match List.assoc_opt "test.merge_hist" (Metrics.snapshot ()) with
  | Some (Metrics.Dist { count; sum; buckets; _ }) ->
    Alcotest.(check int) "count from both domains" 4 count;
    Alcotest.(check (float 1e-12)) "sum from both domains" (0.75 +. 2.5e-9) sum;
    Alcotest.(check (list (pair int int)))
      "buckets from both domains"
      [ (1, 2); (Metrics.bucket_index 0.25, 1); (Metrics.bucket_index 0.5, 1) ]
      buckets
  | _ -> Alcotest.fail "histogram missing");
  obs_off ()

let test_kind_clash () =
  ignore (Metrics.counter "test.clash");
  Alcotest.check_raises "gauge over a counter"
    (Invalid_argument {|Metrics: "test.clash" already defined with another kind|})
    (fun () -> ignore (Metrics.gauge "test.clash"))

(* A domain that touched a handle before [reset] keeps its cell: the
   reset zeroes it in place, and the domain's later counts land in it. *)
let test_counts_after_reset () =
  obs_off ();
  Metrics.enable ();
  let c = Metrics.counter "test.after_reset" in
  let g = Metrics.gauge "test.after_reset_gauge" in
  let h = Metrics.histogram "test.after_reset_hist" in
  let touch () =
    Metrics.add c 2;
    Metrics.set g 4.0;
    Metrics.observe h 1e-6
  in
  let reset_done = Atomic.make false and touched = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        touch ();
        Atomic.incr touched;
        while not (Atomic.get reset_done) do
          Domain.cpu_relax ()
        done;
        touch ())
  in
  touch ();
  while Atomic.get touched = 0 do
    Domain.cpu_relax ()
  done;
  Metrics.reset ();
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "reset zeroes the counter" true
    (List.assoc "test.after_reset" snap = Metrics.Count 0);
  Alcotest.(check bool) "a reset gauge reads as never set" true
    (List.assoc "test.after_reset_gauge" snap
    = Metrics.Level { last = 0.0; max_ = 0.0; sets = 0 });
  Alcotest.(check bool) "a reset histogram reads as empty" true
    (List.assoc "test.after_reset_hist" snap
    = Metrics.Dist { count = 0; sum = 0.0; buckets = []; p50 = 0.0; p90 = 0.0; p99 = 0.0 });
  Atomic.set reset_done true;
  Domain.join d;
  touch ();
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "both domains count after the reset" true
    (List.assoc "test.after_reset" snap = Metrics.Count 4);
  (match List.assoc "test.after_reset_gauge" snap with
  | Metrics.Level { max_; sets; _ } ->
    Alcotest.(check (float 0.0)) "gauge max" 4.0 max_;
    Alcotest.(check int) "gauge sets" 2 sets
  | _ -> Alcotest.fail "gauge missing");
  (match List.assoc "test.after_reset_hist" snap with
  | Metrics.Dist { count; _ } -> Alcotest.(check int) "histogram count" 2 count
  | _ -> Alcotest.fail "histogram missing");
  Alcotest.(check int) "local share" 2 (Metrics.local_count c);
  obs_off ()

(* Minor words [f] allocates; [Gc.minor] first, so no collection
   falls inside the window. *)
let minor_words_of f =
  Gc.minor ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The hot path allocates nothing: 10^5 disabled calls of every
   operation, and 10^5 enabled calls of [incr], [set], [observe] and
   [local_count] once the domain's cells exist.  Native only. *)
let test_hot_path_allocation () =
  if Sys.backend_type = Sys.Native then begin
    obs_off ();
    let c = Metrics.counter "test.alloc_counter" in
    let g = Metrics.gauge "test.alloc_gauge" in
    let h = Metrics.histogram "test.alloc_hist" in
    let n = 100_000 in
    let pin label f =
      Alcotest.(check (float 0.0)) (label ^ ": minor words") 0.0
        (minor_words_of (fun () ->
             for _ = 1 to n do
               f ()
             done))
    in
    pin "disabled incr" (fun () -> Metrics.incr c);
    pin "disabled add" (fun () -> Metrics.add c 3);
    pin "disabled set" (fun () -> Metrics.set g 2.5);
    pin "disabled observe" (fun () -> Metrics.observe h 1e-3);
    Metrics.enable ();
    Metrics.incr c;
    Metrics.set g 2.5;
    Metrics.observe h 1e-3;
    pin "enabled incr" (fun () -> Metrics.incr c);
    pin "enabled set" (fun () -> Metrics.set g 2.5);
    pin "enabled observe" (fun () -> Metrics.observe h 1e-3);
    let sum = ref 0 in
    pin "enabled local_count" (fun () -> sum := !sum + Metrics.local_count c);
    Alcotest.(check int) "local_count read" (n * (n + 1)) !sum;
    obs_off ()
  end

(* ---------- spans ---------- *)

let test_span_nesting () =
  obs_off ();
  Trace.enable ();
  Trace.with_span ~cat:"t" "outer" (fun () ->
      Trace.with_span ~cat:"t" "inner" (fun () -> ignore (Sys.opaque_identity 1)));
  (match Trace.events () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first" "outer" outer.Trace.name;
    Alcotest.(check string) "inner second" "inner" inner.Trace.name;
    Alcotest.(check bool) "inner starts after outer" true
      (inner.Trace.ts_ns >= outer.Trace.ts_ns);
    Alcotest.(check bool) "inner ends before outer" true
      (Int64.add inner.Trace.ts_ns inner.Trace.dur_ns
       <= Int64.add outer.Trace.ts_ns outer.Trace.dur_ns)
  | evs -> Alcotest.failf "expected 2 spans, got %d" (List.length evs));
  obs_off ()

let test_span_ring_overwrite () =
  obs_off ();
  Trace.enable ();
  (* a fresh domain gets a fresh ring *)
  let d =
    Domain.spawn (fun () ->
        for i = 1 to Ring.capacity + 6 do
          Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
        done)
  in
  Domain.join d;
  let evs = Trace.events () in
  Alcotest.(check int) "ring keeps a full ring" Ring.capacity (List.length evs);
  let kept name = List.exists (fun e -> e.Trace.name = name) evs in
  Alcotest.(check bool) "the 6 oldest overwritten" true
    (kept "s7" && not (kept "s6"));
  Alcotest.(check int) "dropped counted" 6 (Trace.dropped ());
  obs_off ()

let test_chrome_trace_json () =
  obs_off ();
  Trace.enable ();
  Trace.with_span ~cat:"c" ~args:[ ("k", "v") ] "spanned" (fun () -> ());
  let rendered = Json.to_string (Trace.to_chrome ()) in
  (match Json.parse rendered with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some [ ev ] ->
      let field name = Option.bind (Json.member name ev) Json.to_str in
      Alcotest.(check (option string)) "name" (Some "spanned") (field "name");
      Alcotest.(check (option string)) "ph" (Some "X") (field "ph");
      Alcotest.(check bool) "has ts" true
        (Option.is_some (Option.bind (Json.member "ts" ev) Json.to_float));
      Alcotest.(check bool) "has dur" true
        (Option.is_some (Option.bind (Json.member "dur" ev) Json.to_float));
      Alcotest.(check (option string)) "args kept" (Some "v")
        (Option.bind (Json.member "args" ev) (Json.member "k")
        |> Fun.flip Option.bind Json.to_str)
    | Some evs -> Alcotest.failf "expected 1 trace event, got %d" (List.length evs)
    | None -> Alcotest.fail "traceEvents missing"));
  obs_off ()

(* ---------- flight recorder ---------- *)

let flight_off () =
  Flight.disable ();
  Flight.reset ()

let test_flight_disabled_inert () =
  flight_off ();
  Alcotest.(check bool) "off by default here" false (Flight.enabled ());
  Flight.emit ~sim_t:1.0 ~flow:0 ~node:0 ~peer:1 ~detail:"x" ~value:2.0 "hop";
  Alcotest.(check int) "nothing retained" 0 (List.length (Flight.events ()));
  Alcotest.(check int) "nothing overwritten" 0 (Flight.dropped ())

let test_flight_ring_overwrite () =
  flight_off ();
  Flight.enable ();
  Flight.reset ();
  (* a fresh domain gets a fresh ring *)
  let d =
    Domain.spawn (fun () ->
        for i = 0 to Ring.capacity + 5 do
          Flight.emit ~sim_t:(float_of_int i) ~flow:i ~node:i ~peer:(-1)
            ~detail:"" ~value:0.0 "e"
        done)
  in
  Domain.join d;
  let evs = Flight.events () in
  Alcotest.(check int) "capacity retained" Ring.capacity (List.length evs);
  Alcotest.(check (list int))
    "newest events win" (List.init Ring.capacity (fun i -> i + 6))
    (List.map (fun e -> e.Flight.flow) evs);
  Alcotest.(check int) "overwritten counted" 6 (Flight.dropped ());
  flight_off ()

let test_flight_flow_ids () =
  flight_off ();
  Flight.enable ();
  Flight.reset ();
  Alcotest.(check int) "control flow is -1" (-1) Flight.control_flow;
  Alcotest.(check int) "first transfer id" (-2) (Flight.new_flow ());
  Alcotest.(check int) "second transfer id" (-3) (Flight.new_flow ());
  Flight.reset ();
  Alcotest.(check int) "reset restarts ids" (-2) (Flight.new_flow ());
  flight_off ()

(* ---------- ring ---------- *)

(* The ring against a list model.  Events are (key, id) and [compare]
   sees only the key, so ties keep the order the ring hands to the
   stable sort: each ring's slot order, push i sitting in slot
   i mod capacity.  A batch's length is drawn uniformly up to two
   wraps, or at a wrap boundary; its keys come from a seeded stream. *)
let by_key (a, _) (b, _) = Int.compare a b

let ring_model pushes =
  let cap = Ring.capacity in
  let n = List.length pushes in
  List.filteri (fun i _ -> i >= n - cap) pushes
  |> List.mapi (fun j ev -> ((max 0 (n - cap) + j) mod cap, ev))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd |> List.stable_sort by_key

let prop_ring_matches_model =
  let cap = Ring.capacity in
  let batch =
    QCheck2.Gen.(
      pair
        (oneof
           [ int_range 0 ((2 * cap) + 3);
             oneofl [ 1; cap - 1; cap; cap + 1; (2 * cap) - 1; 2 * cap ] ])
        int)
  in
  let keys (n, seed) =
    let st = Random.State.make [| seed |] in
    List.init n (fun _ -> Random.State.int st 4)
  in
  QCheck2.Test.make ~name:"events/dropped/reset equal the list model" ~count:10
    QCheck2.Gen.(pair batch batch)
    (fun (first, second) ->
      let r = Ring.create ~compare:by_key in
      Ring.enable r;
      let agrees batch =
        let keys = keys batch in
        let pushes = List.mapi (fun id k -> (k, id)) keys in
        List.iter (Ring.push r) pushes;
        Ring.events r = ring_model pushes
        && Ring.dropped r = max 0 (List.length keys - cap)
        && Ring.pushed r = List.length keys
      in
      let ok = agrees first in
      Ring.reset r;
      ok && Ring.events r = [] && Ring.dropped r = 0 && agrees second)

(* Ties keep the merge order: the newest-registered domain's ring
   first, each ring's events in slot order, then the stable sort. *)
let test_ring_tie_order () =
  let r = Ring.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) in
  Ring.enable r;
  Ring.push r (0, "main 1");
  Ring.push r (1, "main 2");
  Ring.push r (0, "main 3");
  Domain.join
    (Domain.spawn (fun () ->
         Ring.push r (1, "child 1");
         Ring.push r (0, "child 2")));
  Alcotest.(check (list string))
    "newest ring first, slots in order"
    [ "child 2"; "main 1"; "main 3"; "child 1"; "main 2" ]
    (List.map snd (Ring.events r))

(* Reset lets go of what the ring held. *)
let test_ring_reset_releases () =
  let r = Ring.create ~compare:compare in
  Ring.enable r;
  let weak = Weak.create 5 in
  let push_fresh i =
    let ev = Bytes.make 16 (Char.chr (65 + i)) in
    Weak.set weak i (Some ev);
    Ring.push r ev
  in
  for i = 0 to 4 do
    push_fresh i
  done;
  Ring.reset r;
  Gc.full_major ();
  for i = 0 to 4 do
    Alcotest.(check bool) (Printf.sprintf "event %d collected" i) false (Weak.check weak i)
  done

(* [events] costs O(retained), not O(capacity): a 65,536-slot ring
   holding 10 events.  Native only (bytecode allocates differently);
   [Gc.minor] first, so no collection falls inside the window. *)
let test_ring_events_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let r = Ring.create ~compare:Int.compare in
    Ring.enable r;
    for i = 1 to 10 do
      Ring.push r i
    done;
    Gc.minor ();
    let before = Gc.minor_words () in
    let evs = Ring.events r in
    let words = Gc.minor_words () -. before in
    Alcotest.(check (list int)) "events" (List.init 10 succ) evs;
    Alcotest.(check bool) (Printf.sprintf "%.0f words, at most 300" words) true (words <= 300.)
  end

(* ---------- battery report ---------- *)

let sample_report () =
  let exp id status =
    {
      Report.id;
      title = "title of " ^ id;
      status;
      detail = (if status = "failed" then "kaboom" else "");
      wall_s = 0.25;
      events_executed = 1000;
      allocated_bytes = 4096.0;
    }
  in
  Report.make
    ~pool:
      {
        Report.workers = 2;
        tasks = [| 2; 1 |];
        busy_s = [| 0.5; 0.25 |];
        pool_wall_s = 0.6;
      }
    ~metrics:
      [
        ("x.count", Metrics.Count 3);
        ("x.gauge", Metrics.Level { last = 2.0; max_ = 5.0; sets = 4 });
        ( "x.hist",
          Metrics.Dist
            {
              count = 3;
              sum = 0.25;
              buckets = [ (1, 2); (28, 1) ];
              p50 = Metrics.bucket_upper 1;
              p90 = Metrics.bucket_upper 28;
              p99 = Metrics.bucket_upper 28;
            } );
      ]
    ~domains:2 ~wall_s:0.75
    [ exp "E1" "held"; exp "E2" "violated"; exp "E3" "failed" ]

let test_report_json_valid () =
  let r = sample_report () in
  let rendered = Json.to_string (Report.to_json r) in
  match Json.parse rendered with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
    (match Report.validate json with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "emitted report fails validation: %s" msg);
    match Option.bind (Json.member "summary" json) (Json.member "held") with
    | Some (Json.Int 1) -> ()
    | _ -> Alcotest.fail "summary.held wrong")

let test_report_validate_rejects () =
  let r = sample_report () in
  let json = Report.to_json r in
  (* break it in representative ways *)
  let drop name =
    match json with
    | Json.Obj fields -> Json.Obj (List.remove_assoc name fields)
    | _ -> assert false
  in
  (* the pool block with one member replaced *)
  let pool_with name v =
    match json with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, x) ->
             match (k, x) with
             | "pool", Json.Obj p -> (k, Json.Obj ((name, v) :: List.remove_assoc name p))
             | _ -> (k, x))
           fields)
    | _ -> assert false
  in
  List.iter
    (fun (label, bad) ->
      match Report.validate bad with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "validate accepted %s" label)
    [
      ("missing schema", drop "schema");
      ("missing experiments", drop "experiments");
      ("missing summary", drop "summary");
      ("not an object", Json.List []);
      ( "wrong schema tag",
        match json with
        | Json.Obj fields ->
          Json.Obj (("schema", Json.Str "other/9") :: List.remove_assoc "schema" fields)
        | _ -> assert false );
      ("string pool tasks", pool_with "tasks" (Json.List [ Json.Str "x"; Json.Str "x" ]));
      ("null pool busy_s", pool_with "busy_s" (Json.List [ Json.Null; Json.Null ]));
      ("negative pool tasks", pool_with "tasks" (Json.List [ Json.Int 4; Json.Int (-1) ]));
      ("pool tasks short of the total", pool_with "tasks" (Json.List [ Json.Int 1; Json.Int 1 ]));
    ];
  (* the metrics block, or one member of one of its entries, replaced *)
  let with_metrics m =
    match json with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> if k = "metrics" then (k, m) else (k, x)) fields)
    | _ -> assert false
  in
  let metric_with name key v =
    match Json.member "metrics" json with
    | Some (Json.Obj ms) ->
      with_metrics
        (Json.Obj
           (List.map
              (fun (n, m) ->
                match m with
                | Json.Obj fs when n = name ->
                  ( n,
                    Json.Obj
                      (match v with
                      | None -> List.remove_assoc key fs
                      | Some v -> List.map (fun (k, x) -> (k, if k = key then v else x)) fs) )
                | _ -> (n, m))
              ms))
    | _ -> assert false
  in
  let pairs ps = Json.List (List.map (fun (i, n) -> Json.List [ Json.Int i; Json.Int n ]) ps) in
  List.iter
    (fun (bad, expected) ->
      Alcotest.(check (result unit string)) expected (Error expected) (Report.validate bad))
    [
      (with_metrics (Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]), "metrics: not an object");
      (metric_with "x.count" "type" (Some (Json.Str "bogus")), {|metrics.x.count: unknown type "bogus"|});
      (metric_with "x.count" "type" None, {|metrics.x.count: missing field "type"|});
      ( metric_with "x.count" "value" (Some (Json.Str "x")),
        {|metrics.x.count: field "value" has the wrong type|} );
      (metric_with "x.gauge" "sets" None, {|metrics.x.gauge: missing field "sets"|});
      ( metric_with "x.gauge" "max" (Some (Json.Str "5")),
        {|metrics.x.gauge: field "max" has the wrong type|} );
      (metric_with "x.gauge" "last" None, {|metrics.x.gauge: missing field "last"|});
      ( metric_with "x.hist" "sum" (Some (Json.Str "0.25")),
        {|metrics.x.hist: field "sum" has the wrong type|} );
      (metric_with "x.hist" "count" None, {|metrics.x.hist: missing field "count"|});
      (metric_with "x.hist" "p50" None, {|metrics.x.hist: missing field "p50"|});
      ( metric_with "x.hist" "buckets" (Some (Json.Int 3)),
        {|metrics.x.hist: field "buckets" has the wrong type|} );
      ( metric_with "x.hist" "buckets" (Some (Json.List [ Json.List [ Json.Int 1; Json.Int 3 ]; Json.Int 28 ])),
        "metrics.x.hist: bucket is not an [index, n] pair of integers" );
      ( metric_with "x.hist" "buckets" (Some (Json.List [ Json.List [ Json.Int 1; Json.Int 2; Json.Int 1 ] ])),
        "metrics.x.hist: bucket is not an [index, n] pair of integers" );
      ( metric_with "x.hist" "buckets" (Some (Json.List [ Json.List [ Json.Int 1; Json.Str "3" ] ])),
        "metrics.x.hist: bucket is not an [index, n] pair of integers" );
      ( metric_with "x.hist" "buckets" (Some (pairs [ (1, 2); (64, 1) ])),
        "metrics.x.hist: bucket index 64 outside [0, 64)" );
      ( metric_with "x.hist" "buckets" (Some (pairs [ (-1, 2); (28, 1) ])),
        "metrics.x.hist: bucket index -1 outside [0, 64)" );
      ( metric_with "x.hist" "buckets" (Some (pairs [ (1, 0); (2, 2); (28, 1) ])),
        "metrics.x.hist: bucket 1 holds 0 samples (must be > 0)" );
      ( metric_with "x.hist" "buckets" (Some (pairs [ (28, 1); (1, 2) ])),
        "metrics.x.hist: bucket 1 follows bucket 28" );
      ( metric_with "x.hist" "buckets" (Some (pairs [ (1, 1); (1, 1); (28, 1) ])),
        "metrics.x.hist: bucket 1 follows bucket 1" );
      ( metric_with "x.hist" "count" (Some (Json.Int 4)),
        "metrics.x.hist: buckets hold 3 samples but count is 4" );
      ( metric_with "x.hist" "p90" (Some (Json.Float 1e-9)),
        "metrics.x.hist: percentiles out of order (p50 2e-09, p90 1e-09, p99 0.268435)" );
      ( metric_with "x.hist" "p99" (Some (Json.Float 0.125)),
        "metrics.x.hist: percentiles out of order (p50 2e-09, p90 0.268435, p99 0.125)" );
    ];
  (* and a well-formed block is accepted: an empty histogram, a
     counter alone *)
  List.iter
    (fun (label, m) ->
      Alcotest.(check (result unit string)) label (Ok ()) (Report.validate (with_metrics m)))
    [
      ( "empty histogram",
        Json.Obj
          [
            ( "h",
              Json.Obj
                [
                  ("type", Json.Str "histogram"); ("count", Json.Int 0); ("sum", Json.Float 0.0);
                  ("p50", Json.Float 0.0); ("p90", Json.Float 0.0); ("p99", Json.Float 0.0);
                  ("buckets", Json.List []);
                ] );
          ] );
      ("one counter", Json.Obj [ ("c", Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int 0) ]) ]);
    ]

let test_report_summary_and_imbalance () =
  let r = sample_report () in
  let s = Report.summary r in
  let contains haystack needle =
    let n = String.length haystack and m = String.length needle in
    let rec search i =
      i + m <= n && (String.sub haystack i m = needle || search (i + 1))
    in
    search 0
  in
  Alcotest.(check bool) "lists experiments" true (contains s "E2");
  Alcotest.(check bool) "totals line" true
    (contains s "3 experiments: 1 held, 1 violated, 1 failed");
  Alcotest.(check bool) "pool line" true (contains s "imbalance");
  Alcotest.(check (float 1e-9)) "imbalance" 0.5
    (Report.imbalance
       { Report.workers = 2; tasks = [| 1; 1 |]; busy_s = [| 0.5; 0.25 |];
         pool_wall_s = 1.0 })

let test_read_file_errors () =
  (* a directory opens, and used to fail its seek with EOVERFLOW *)
  let dir = Filename.get_temp_dir_name () in
  Alcotest.(check (result string string)) "a directory is named"
    (Error (dir ^ ": Is a directory")) (Json.read_file dir);
  let missing = Filename.concat dir "tussle-definitely-missing.json" in
  Alcotest.(check (result string string)) "a missing file is named"
    (Error (missing ^ ": No such file or directory")) (Json.read_file missing)

(* ---------- fuzzing the battery-report reader ---------- *)

let with_file contents f =
  let path = Filename.temp_file "tussle-fuzz" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Battery reports: JSON-alphabet bytes; the printed sample report,
   edited; the report with one field replaced by an edge lexeme; and a
   field nested up to 10^5 deep. *)
let gen_report_edited =
  QCheck2.Gen.(
    bool >>= fun minify ->
    gen_edited (Json_oracle.to_string ~minify (Report.to_json (sample_report ()))))

let report_fields =
  [
    [ "schema" ]; [ "label" ]; [ "generated_at" ]; [ "domains" ]; [ "wall_s" ];
    [ "summary" ]; [ "summary"; "total" ]; [ "summary"; "held" ];
    [ "summary"; "failed" ]; [ "experiments" ]; [ "experiments"; "0" ];
    [ "experiments"; "0"; "id" ]; [ "experiments"; "1"; "status" ];
    [ "experiments"; "0"; "wall_s" ]; [ "experiments"; "2"; "events_executed" ];
    [ "experiments"; "0"; "allocated_bytes" ]; [ "pool" ]; [ "pool"; "workers" ];
    [ "pool"; "tasks" ]; [ "pool"; "busy_s" ]; [ "pool"; "imbalance" ];
    [ "metrics" ]; [ "metrics"; "x.count" ]; [ "metrics"; "x.count"; "type" ];
    [ "metrics"; "x.count"; "value" ]; [ "metrics"; "x.gauge"; "max" ];
    [ "metrics"; "x.gauge"; "sets" ]; [ "metrics"; "x.hist"; "count" ];
    [ "metrics"; "x.hist"; "sum" ]; [ "metrics"; "x.hist"; "p90" ];
    [ "metrics"; "x.hist"; "buckets" ]; [ "metrics"; "x.hist"; "buckets"; "0" ];
    [ "metrics"; "x.hist"; "buckets"; "1"; "0" ]; [ "metrics"; "x.hist"; "buckets"; "0"; "1" ];
  ]

(* The printed sample report with the field at [path] replaced by the
   raw text [lexeme]. *)
let report_with path lexeme =
  let hole = "@@lexeme@@" in
  let rec set path j =
    match (path, j) with
    | [], _ -> Json.Str hole
    | k :: rest, Json.Obj fs ->
      Json.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest x else x)) fs)
    | k :: rest, Json.List xs ->
      Json.List (List.mapi (fun i x -> if string_of_int i = k then set rest x else x) xs)
    | _ -> j
  in
  let doc = Json.to_string (set path (Report.to_json (sample_report ()))) in
  match String.index_opt doc '@' with
  | None -> doc
  | Some i ->
    (* the hole and its quotes *)
    let from = i - 1 and stop = i + String.length hole + 1 in
    String.sub doc 0 from ^ lexeme ^ String.sub doc stop (String.length doc - stop)

let gen_report_lexemes =
  QCheck2.Gen.(
    pair (oneofl report_fields)
      (oneofl
         [
           "1e309"; "-1e309"; "-0"; "0"; "-1"; "1.5"; "1e18"; "1e19"; "1e300";
           "-9.3e18"; "4.6e18";
           "4611686018427387903"; "-4611686018427387904"; "null"; "true"; {|""|};
           {|"held"|}; {|"bogus"|}; "[]"; "{}"; {|"\u0000"|}; "[[[[[]]]]]";
           {|"tussle.bench-report/1"|}; {|[1,2,3]|}; {|[0.5,"x"]|};
         ])
    >|= fun (path, lexeme) -> report_with path lexeme)

let gen_report_deep =
  QCheck2.Gen.(
    triple (oneofl report_fields) (oneofl [ 1; 1000; 100_000 ]) bool
    >|= fun (path, depth, closed) ->
    report_with path
      (String.make depth '[' ^ if closed then String.make depth ']' else ""))

(* What [tussle report] does with a file: [Json.read_file], [Json.parse],
   then [Artifact.check].  The parse gives a tree or an error at a byte
   inside the file; the check gives [Ok] or [Error (kind, msg)].  Never
   an exception. *)
let prop_load name ~count gen =
  QCheck2.Test.make ~name ~count ~print:String.escaped (QCheck2.Gen.no_shrink gen)
    (fun text ->
      with_file text (fun path ->
          match Result.bind (Json.read_file path) Json.parse with
          | Ok json -> (
            match Tussle_chaos.Artifact.check json with
            | Ok _ -> true
            | Error (kind, msg) -> kind <> "" && msg <> "")
          | Error msg -> (
            match Scanf.sscanf_opt msg "JSON parse error at byte %d: %_s" Fun.id with
            | Some at -> at >= 0 && at <= String.length text
            | None -> false)))

let prop_load_bytes =
  prop_load "load: JSON-alphabet bytes" ~count:1000
    QCheck2.Gen.(string_size ~gen:gen_alphabet_char (int_range 0 120))

let prop_load_edited = prop_load "load: edited reports" ~count:1000 gen_report_edited
let prop_load_lexemes = prop_load "load: edge lexemes" ~count:1000 gen_report_lexemes

let prop_load_deep =
  prop_load "load: nesting up to 10^5 deep" ~count:60 gen_report_deep

(* ---------- fuzzing the flow-trace validator ---------- *)

(* A small real trace: every 20th event of a faulted line-transfer
   replay, so that every column and both string tables hold several
   entries. *)
let small_trace =
  lazy
    (let plan = [ Plan.Link_down { u = 1; v = 2; w = Plan.window 0.2 0.9 } ] in
     match Explain.run { Corpus.scenario = "line-transfer"; seed = 5; plan } with
     | Error e -> failwith e
     | Ok r ->
       Explain.to_json
         { r with Explain.events = List.filteri (fun i _ -> i mod 20 = 0) r.Explain.events })

let trace_columns = [ "t"; "flow"; "kind"; "node"; "peer"; "detail"; "value" ]

(* Where an array of the trace sits: a column under "events", or a
   top-level string table. *)
let trace_path array = if List.mem array trace_columns then [ "events"; array ] else [ array ]

type trace_edit =
  | Truncate of int  (** the last [k] elements dropped *)
  | Extend  (** the first element repeated at the end *)
  | Retype of string  (** the whole array replaced by this text *)
  | Element of int * string  (** element [i] (mod the length) replaced by this text *)

(* The printed trace with [array] edited; whether the edit must make
   the trace invalid: a column of the wrong length, an array replaced
   by something else, a table that some index overruns, an element
   that is not a number (in a column) or not a string (in a table), or
   a negative or huge index. *)
let edited_trace ~minify array edit =
  let hole = "@@lexeme@@" in
  let column = List.mem array trace_columns in
  let on_list f = function Json.List xs -> Json.List (f xs) | j -> j in
  let tree, lexeme, must_fail =
    match edit with
    | Truncate k ->
      (on_list (fun xs -> List.filteri (fun i _ -> i < List.length xs - k) xs), "", true)
    | Extend -> (on_list (fun xs -> xs @ [ List.hd xs ]), "", column)
    | Retype text -> ((fun _ -> Json.Str hole), text, true)
    | Element (i, text) ->
      ( on_list (fun xs ->
            let i = i mod List.length xs in
            List.mapi (fun k x -> if k = i then Json.Str hole else x) xs),
        text,
        (match text.[0] with
        | '"' -> column
        | '-' | '0' .. '9' -> not column
        | _ -> true)
        || (array = "kind" || array = "detail")
           && List.mem text [ "-1"; "1000000"; "4611686018427387903"; "1e19"; "-9.3e18" ] )
  in
  let doc =
    Json_oracle.to_string ~minify
      (Flow_trace_oracle.edit (trace_path array) tree (Lazy.force small_trace))
  in
  let quoted = "\"" ^ hole ^ "\"" in
  let n = String.length quoted in
  let rec find i =
    if i + n > String.length doc then doc
    else if String.sub doc i n = quoted then
      String.sub doc 0 i ^ lexeme ^ String.sub doc (i + n) (String.length doc - i - n)
    else find (i + 1)
  in
  (find 0, must_fail)

(* [Json.parse] then [Explain.validate_json] gives [Ok], a parse error
   at a byte inside the text, or a validation error starting
   "flow-trace: "; never an exception.  [Some true] when it is
   [Ok]. *)
let trace_verdict text =
  match Json.parse text with
  | Error msg -> (
    match Scanf.sscanf_opt msg "JSON parse error at byte %d: %_s" Fun.id with
    | Some at when at >= 0 && at <= String.length text -> Some false
    | _ -> None)
  | Ok j -> (
    match Explain.validate_json j with
    | Ok () -> Some true
    | Error msg when String.starts_with ~prefix:"flow-trace: " msg -> Some false
    | Error _ -> None)

let prop_trace name ~count gen =
  QCheck2.Test.make ~name ~count ~print:String.escaped (QCheck2.Gen.no_shrink gen)
    (fun text -> trace_verdict text <> None)

let prop_trace_bytes =
  prop_trace "flow trace: JSON-alphabet bytes" ~count:1000
    QCheck2.Gen.(string_size ~gen:gen_alphabet_char (int_range 0 120))

let prop_trace_edited =
  prop_trace "flow trace: edited traces" ~count:1000
    QCheck2.Gen.(
      bool >>= fun minify ->
      gen_edited (Json_oracle.to_string ~minify (Lazy.force small_trace)))

let gen_trace_array = QCheck2.Gen.oneofl ("kinds" :: "details" :: trace_columns)

let gen_column_edit lexeme =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> Truncate k) (int_range 1 3);
        pure Extend;
        map (fun text -> Retype text) lexeme;
        map2 (fun i text -> Element (i, text)) (int_bound 1000) lexeme;
      ])

let prop_trace_columns name ~count lexeme =
  QCheck2.Test.make ~name ~count
    ~print:(fun (minify, array, edit) ->
      String.escaped (fst (edited_trace ~minify array edit)))
    QCheck2.Gen.(no_shrink (triple bool gen_trace_array (gen_column_edit lexeme)))
    (fun (minify, array, edit) ->
      let text, must_fail = edited_trace ~minify array edit in
      match trace_verdict text with
      | None -> false
      | Some valid -> not (must_fail && valid))

let prop_trace_lexemes =
  prop_trace_columns "flow trace: column edits and edge lexemes" ~count:1000
    (QCheck2.Gen.oneofl
       [
         "-1"; "0"; "1"; "1000000"; "4611686018427387903"; "4611686018427387904"; "1e19";
         "-9.3e18"; "1.5"; "-0"; "1e309"; "null"; "true"; {|"x"|}; {|"\u0000"|}; "[]";
         "{}"; "[1,2,3]"; {|["a"]|};
       ])

let prop_trace_deep =
  prop_trace_columns "flow trace: nesting up to 10^5 deep" ~count:60
    QCheck2.Gen.(
      pair (oneofl [ 1; 1000; 100_000 ]) bool >|= fun (depth, closed) ->
      String.make depth '[' ^ if closed then String.make depth ']' else "")

(* ---------- determinism guard ---------- *)

let fast id =
  match Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "missing %s" id

let test_telemetry_does_not_perturb () =
  obs_off ();
  let batch =
    List.map fast [ "E4"; "E6"; "E7"; "E8"; "E19"; "E23"; "E25"; "E26" ]
  in
  let render outcomes =
    String.concat "\n" (List.map (fun o -> o.Experiment.output) outcomes)
  in
  let baseline = render (Registry.run_list ~domains:1 batch) in
  Metrics.enable ();
  Trace.enable ();
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "instrumented output identical (%d domains)" domains)
        baseline
        (render (Registry.run_list ~domains batch)))
    [ 1; 2; 4 ];
  (* and the instrumented run did actually record telemetry *)
  (match List.assoc_opt "experiments.run" (Metrics.snapshot ()) with
  | Some (Metrics.Count n) ->
    Alcotest.(check int) "experiments counted" (3 * List.length batch) n
  | _ -> Alcotest.fail "experiments.run counter missing");
  Alcotest.(check bool) "spans recorded" true (Trace.events () <> []);
  (match Pool.last_stats () with
  | Some s ->
    Alcotest.(check int) "pool tasks accounted" (List.length batch)
      (Array.fold_left ( + ) 0 s.Report.tasks)
  | None -> Alcotest.fail "pool stats missing");
  obs_off ()

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "pinned numbers, escapes, nesting" `Quick
            test_json_pinned_numbers;
          Alcotest.test_case "edge numbers" `Quick test_json_edge_numbers;
          Alcotest.test_case "read_file errors name the path" `Quick
            test_read_file_errors;
          QCheck_alcotest.to_alcotest prop_emit_matches_oracle;
          QCheck_alcotest.to_alcotest prop_parse_mutated;
          QCheck_alcotest.to_alcotest prop_parse_tokens;
          QCheck_alcotest.to_alcotest prop_parse_alphabet;
          QCheck_alcotest.to_alcotest prop_to_int_range;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          QCheck_alcotest.to_alcotest prop_bucket_index_matches_frexp;
          Alcotest.test_case "counter merge across domains" `Quick
            test_counter_merge;
          Alcotest.test_case "gauge merge and reset" `Quick
            test_gauge_merge_and_reset;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "histogram merge across domains" `Quick
            test_histogram_merge;
          Alcotest.test_case "kind clash raises" `Quick test_kind_clash;
          Alcotest.test_case "domains count after reset" `Quick
            test_counts_after_reset;
          Alcotest.test_case "hot path allocates nothing" `Quick
            test_hot_path_allocation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "ring overwrite" `Quick test_span_ring_overwrite;
          Alcotest.test_case "chrome trace json" `Quick test_chrome_trace_json;
        ] );
      ( "flight",
        [
          Alcotest.test_case "disabled is inert" `Quick
            test_flight_disabled_inert;
          Alcotest.test_case "ring overwrite keeps newest" `Quick
            test_flight_ring_overwrite;
          Alcotest.test_case "flow ids and reset" `Quick test_flight_flow_ids;
        ] );
      ( "ring",
        [
          QCheck_alcotest.to_alcotest prop_ring_matches_model;
          Alcotest.test_case "reset releases events" `Quick test_ring_reset_releases;
          Alcotest.test_case "ties: newest domain first" `Quick test_ring_tie_order;
          Alcotest.test_case "events allocate O(retained)" `Quick
            test_ring_events_allocation;
        ] );
      ( "report",
        [
          Alcotest.test_case "emitted json validates" `Quick
            test_report_json_valid;
          Alcotest.test_case "validate rejects corruption" `Quick
            test_report_validate_rejects;
          Alcotest.test_case "summary and imbalance" `Quick
            test_report_summary_and_imbalance;
          QCheck_alcotest.to_alcotest prop_load_bytes;
          QCheck_alcotest.to_alcotest prop_load_edited;
          QCheck_alcotest.to_alcotest prop_load_lexemes;
          QCheck_alcotest.to_alcotest prop_load_deep;
        ] );
      ( "flow-trace",
        [
          QCheck_alcotest.to_alcotest prop_trace_bytes;
          QCheck_alcotest.to_alcotest prop_trace_edited;
          QCheck_alcotest.to_alcotest prop_trace_lexemes;
          QCheck_alcotest.to_alcotest prop_trace_deep;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "telemetry never perturbs battery" `Slow
            test_telemetry_does_not_perturb;
        ] );
    ]
