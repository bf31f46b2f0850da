(* E30 — Data-plane-verified healing: gray failures, flaps and
   blackholes vs hello-only detection.

   E29 showed a hello-timeout control plane healing an honest outage:
   the link goes administratively down, hellos stop, the table moves.
   This experiment injects the faults hello-based liveness is
   structurally blind to — gray loss (data dies while the link answers
   hellos), a flapping link whose phases fit inside the detection
   window, and a Byzantine node that keeps answering hellos while
   silently discarding transit traffic — and contrasts the same
   hello-only control plane against {!Tussle_routing.Selfheal}'s
   data-plane-verified mode: windowed delivered/offered probing of
   each adjacency, end-to-end transit probes with quarantine, and flap
   damping.  Part B sweeps seeded covert faults; the statistical
   surface pairs hello-only and verified availability per seed. *)

module Rng = Tussle_prelude.Rng
module Table = Tussle_prelude.Table
module Pool = Tussle_prelude.Pool
module Selfheal = Tussle_routing.Selfheal
module Plan = Tussle_fault.Plan
module Seed = Tussle_fault.Seed
module Ring = Heal_ring

(* One plan under both control planes.  Both route by `Hops (Heal_ring),
   so path choice — and therefore which links the faults target — is
   identical; only detection differs. *)
let hello_and_verified ~seed ~plan ~fault_at =
  ( Ring.run ~seed ~plan ~fault_at (Ring.Heal Selfheal.Hello_only),
    Ring.run ~seed ~plan ~fault_at (Ring.Heal Selfheal.Verified) )

(* ---------- the covert fault grammar, drawn per seed ---------- *)

type covert_kind = Gray | Flap | Blackhole

let kind_name = function
  | Gray -> "gray-loss"
  | Flap -> "flap"
  | Blackhole -> "blackhole"

(* One covert episode aimed at the primary path: a gray link, a
   fast flap (phases near the hello detection threshold), or a
   Byzantine interior node.  Same derivation for part B and the
   statistical surface. *)
let draw_covert rng path_pairs =
  let (u, v), w = Ring.draw_outage rng path_pairs in
  match Rng.int rng 3 with
  | 0 -> (Gray, Plan.Gray_loss { u; v; w; prob = Rng.uniform rng 0.7 0.95 }, w)
  | 1 ->
    ( Flap,
      Plan.Link_flap
        { u; v; w;
          period_s = Rng.uniform rng 0.15 0.3;
          duty = Rng.uniform rng 0.4 0.6 },
      w )
  | _ ->
    (* the interior endpoint: blackholing src or dst would just stop
       the flow at its ends rather than eat it in transit *)
    let node = if u <> Ring.src && u <> Ring.dst then u else v in
    (Blackhole, Plan.Blackhole { node; w }, w)

(* ---------- part B: seeded covert sweep, hello-only vs verified ---------- *)

type sweep_item = {
  index : int;
  item_seed : int;
  kind : covert_kind;
  spec : Plan.spec;
  w : Plan.window;
}

type sweep_result = {
  item : sweep_item;
  hello_r : Ring.stats;
  verified_r : Ring.stats;
}

let draw_items ~fault_seed ~count path_pairs =
  List.init count (fun k ->
      let item_seed = fault_seed + (1013 * (k + 1)) in
      let kind, spec, w = draw_covert (Rng.create item_seed) path_pairs in
      { index = k; item_seed; kind; spec; w })

let run_item item =
  let hello_r, verified_r =
    hello_and_verified ~seed:item.item_seed ~plan:[ item.spec ]
      ~fault_at:item.w.Plan.from_s
  in
  { item; hello_r; verified_r }

let run () =
  let fault_seed = Seed.get () in
  let path = Ring.primary_path () in
  let path_pairs = Ring.adjacent_pairs path in
  let au, av = List.hd path_pairs in
  let bu, bv = List.nth path_pairs 1 in
  let bh_node = if bv <> Ring.src && bv <> Ring.dst then bv else bu in
  (* part A: one composite plan walking all three covert fault classes
     down the primary path, in disjoint windows off the hello grid *)
  let plan =
    [
      Plan.Gray_loss { u = au; v = av; w = Plan.window 0.33 1.22; prob = 0.9 };
      Plan.Link_flap
        { u = bu; v = bv; w = Plan.window 1.33 2.12; period_s = 0.21;
          duty = 0.5 };
      Plan.Blackhole { node = bh_node; w = Plan.window 2.23 3.02 };
    ]
  in
  let fault_at = 0.33 in
  let healthy =
    Ring.run ~seed:(fault_seed + 7) ~plan:[] ~fault_at
      (Ring.Heal Selfheal.Hello_only)
  in
  let hello_r, verified_r =
    hello_and_verified ~seed:(fault_seed + 7) ~plan ~fault_at
  in
  let ta =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Left ]
      [ "control plane"; "delivered"; "% offered"; "covert drops"; "reconv";
        "suppress"; "first move" ]
  in
  List.iter
    (fun (name, (r : Ring.stats)) ->
      Table.add_row ta
        [ name;
          Printf.sprintf "%d/%d" r.delivered r.offered;
          Ring.pct (Ring.pct_of r);
          string_of_int r.covert_drops;
          string_of_int r.reconvergences;
          string_of_int r.suppressions;
          Ring.seconds r.convergence_s ])
    [ ("healthy (no fault)", healthy); ("hello-only", hello_r);
      ("data-plane-verified", verified_r) ];
  (* part B *)
  let items = draw_items ~fault_seed ~count:6 path_pairs in
  let sweep = Pool.map run_item items in
  let tb =
    Table.create
      ~aligns:
        [ Table.Right; Table.Left; Table.Left; Table.Right; Table.Right;
          Table.Right ]
      [ "fault"; "kind"; "window"; "hello-only %"; "verified %";
        "first move" ]
  in
  List.iter
    (fun s ->
      Table.add_row tb
        [ string_of_int s.item.index;
          kind_name s.item.kind;
          Printf.sprintf "[%.2f, %.2f)" s.item.w.Plan.from_s
            s.item.w.Plan.until_s;
          Ring.pct (Ring.pct_of s.hello_r);
          Ring.pct (Ring.pct_of s.verified_r);
          Ring.seconds s.verified_r.convergence_s ])
    sweep;
  let mean f =
    List.fold_left (fun acc s -> acc +. f s) 0.0 sweep
    /. float_of_int (List.length sweep)
  in
  let mean_hello = mean (fun s -> Ring.pct_of s.hello_r) in
  let mean_verified = mean (fun s -> Ring.pct_of s.verified_r) in
  let body =
    Printf.sprintf
      "A %d-packet flow %d -> %d on a %d-ring; the primary path %s is hit \
       by a gray\nlink %d-%d, a flapping link %d-%d, then a blackholed \
       node %d — all while every\nhello passes (fault seed %d):\n\n\
       %s\n\
       Sweep of 6 seeded covert faults on the primary path, hello-only vs \
       verified\n(data-plane probes %.0f ms, transit probes + quarantine, \
       flap damping):\n\n\
       %s\n\
       mean availability: hello-only %.1f%%, verified %.1f%% of offered\n"
      Ring.packets Ring.src Ring.dst Ring.nodes
      (String.concat "-" (List.map string_of_int path))
      au av bu bv bh_node fault_seed (Table.render ta)
      (Selfheal.probe_interval *. 1000.0)
      (Table.render tb) mean_hello mean_verified
  in
  let ok =
    (* clean baseline, every run drains, flow accounting closed *)
    healthy.delivered = Ring.packets
    && healthy.covert_drops = 0
    && List.for_all
         (fun (r : Ring.stats) -> r.drained && r.offered = Ring.packets)
         [ healthy; hello_r; verified_r ]
    (* hello-only is structurally blind: the covert plan eats over a
       quarter of the flow and the ledger says so *)
    && Ring.pct_of hello_r < 75.0
    && hello_r.covert_drops > 0
    (* the verified control plane detects what hellos cannot: it
       delivers >= 85% of offered, moves within a second of the first
       fault, and strictly shrinks the covert damage *)
    && Ring.pct_of verified_r >= 85.0
    && verified_r.reconvergences >= 2
    && verified_r.covert_drops < hello_r.covert_drops
    && (match verified_r.convergence_s with
       | Some c -> c >= 0.0 && c < 1.0
       | None -> false)
    (* and the seeded sweep generalizes the gap *)
    && List.for_all
         (fun s ->
           s.hello_r.drained && s.verified_r.drained
           && Ring.pct_of s.verified_r >= Ring.pct_of s.hello_r)
         sweep
    && mean_verified > mean_hello
    && mean_verified >= 85.0
  in
  (body, ok)

(* ---------- statistical sweep surface ----------

   One replicate draws one covert fault on the primary path (same
   derivation as part B, from the sweep's per-run seed) and runs the
   {e same} fault under hello-only and data-plane-verified healing, so
   the availability metrics are paired per seed. *)

let probe ~seed =
  let path_pairs = Ring.adjacent_pairs (Ring.primary_path ()) in
  let _, spec, w = draw_covert (Rng.create seed) path_pairs in
  let hello_r, verified_r =
    hello_and_verified ~seed ~plan:[ spec ] ~fault_at:w.Plan.from_s
  in
  [
    ("availability_hello", Ring.pct_of hello_r);
    ("availability_verified", Ring.pct_of verified_r);
    ("availability_gap", Ring.pct_of verified_r -. Ring.pct_of hello_r);
    ("covert_hello", float_of_int hello_r.covert_drops);
    ("covert_verified", float_of_int verified_r.covert_drops);
    ( "verified_convergence_s",
      Option.value ~default:0.0 verified_r.convergence_s );
  ]

let judge sample =
  let module T = Tussle_prelude.Stats.Test in
  [
    {
      Experiment.claim = "availability(verified) > availability(hello-only)";
      test = "paired t, greater";
      result =
        T.paired ~alternative:T.Greater
          (sample "availability_verified")
          (sample "availability_hello");
    };
    {
      Experiment.claim =
        "availability(verified) > availability(hello-only), unpaired";
      test = "welch t, greater";
      result =
        T.two_sample ~alternative:T.Greater
          (sample "availability_verified")
          (sample "availability_hello");
    };
    {
      Experiment.claim = "covert drops shrink under verification";
      test = "paired t, less";
      result =
        T.paired ~alternative:T.Less
          (sample "covert_verified")
          (sample "covert_hello");
    };
    {
      Experiment.claim = "mean verified availability > 80% of offered";
      test = "one-sample t, greater";
      result =
        T.one_sample ~alternative:T.Greater ~mean:80.0
          (sample "availability_verified");
    };
  ]

let experiment =
  {
    Experiment.id = "E30";
    title = "Verified healing: gray failure, flap and blackhole";
    paper_claim =
      "\"The fundamental tussle is between those who want to deliver and \
       those who want to block or subvert\" (§V) and \"failures of \
       transparency will occur — design what happens then\" (§VI-A): a \
       control plane that trusts liveness signals (hellos) is blind to \
       adversaries and gray failures that answer the signal while \
       discarding the traffic; verifying the data plane itself — probing \
       what is actually delivered, not what is claimed — restores the \
       ability to route around silent subversion.";
    run;
    sweep = Some { Experiment.probe; judge };
  }
