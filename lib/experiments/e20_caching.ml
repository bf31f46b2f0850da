(* E20 — Enhancing the mature application at the newcomer's expense
   (§VI-A).

   A client fetches content across the wide area.  An access-provider
   cache understands the mature application's protocol and serves its
   popular objects locally; the unproven new application gets no such
   help.  The enhancement is real — and so is the widening gap it opens
   between incumbent and newcomer. *)

module Rng = Tussle_prelude.Rng
module Table = Tussle_prelude.Table
module Stats = Tussle_prelude.Stats
module Packet = Tussle_netsim.Packet
module Cache = Tussle_netsim.Cache

(* latency model: cache at the access provider (1 hop, 2 ms RTT);
   origin servers across the wide area (5 hops, 40 ms RTT) *)
let rtt_cache = 0.002
let rtt_origin = 0.040

let zipf_weights n =
  Array.init n (fun i -> 1.0 /. float_of_int (i + 1))

let mean_latency rng ~app ~cache ~requests ~objects =
  let weights = zipf_weights objects in
  let latencies =
    Array.init requests (fun i ->
        let obj = Rng.weighted_index rng weights in
        let p =
          Packet.make ~app
            ~port:(8000 + obj) (* object id rides in the port *)
            ~id:i ~src:0 ~dst:99 ~created:0.0 ()
        in
        let served_locally =
          match cache with Some c -> Cache.serves c p | None -> false
        in
        if served_locally then rtt_cache else rtt_origin)
  in
  Stats.mean latencies

let run () =
  let requests = 5_000 and objects = 50 in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "deployment"; "web latency (ms)"; "new-app latency (ms)";
        "incumbent advantage" ]
  in
  let row name ~with_cache =
    let rng = Rng.create 1020 in
    let cache =
      if with_cache then Some (Cache.create ~app:Packet.Web) else None
    in
    let web = mean_latency rng ~app:Packet.Web ~cache ~requests ~objects in
    let game = mean_latency rng ~app:Packet.Game ~cache ~requests ~objects in
    Table.add_row t
      [
        name;
        Printf.sprintf "%.1f" (1000.0 *. web);
        Printf.sprintf "%.1f" (1000.0 *. game);
        Printf.sprintf "%.1fx" (game /. web);
      ];
    (web, game)
  in
  let web0, game0 = row "no caches (transparent net)" ~with_cache:false in
  let web1, game1 = row "web caches at the access ISP" ~with_cache:true in
  (* and the cache is useless against encrypted content *)
  let rng = Rng.create 1020 in
  let cache = Cache.create ~app:Packet.Web in
  let enc_latencies =
    Array.init 500 (fun i ->
        let p =
          Packet.make ~app:Packet.Web ~encrypted:true
            ~port:(8000 + Rng.int rng 5) ~id:i ~src:0 ~dst:99 ~created:0.0 ()
        in
        if Cache.serves cache p then rtt_cache else rtt_origin)
  in
  let enc_mean = Stats.mean enc_latencies in
  let footer =
    Printf.sprintf
      "\nencrypted web traffic sees %.1f ms: the enhancement requires peeking\n"
      (1000.0 *. enc_mean)
  in
  let ok =
    (* baseline: no advantage either way *)
    Float.abs (game0 -. web0) < 1e-9
    (* the cache speeds the incumbent up a lot... *)
    && web1 < 0.6 *. web0
    (* ...does nothing for the new application... *)
    && Float.abs (game1 -. game0) < 1e-9
    (* ...so the incumbent advantage opens up *)
    && game1 /. web1 > 1.5
    (* and encryption forfeits the enhancement entirely *)
    && Float.abs (enc_mean -. rtt_origin) < 1e-9
  in
  (Table.render t ^ footer, ok)

let experiment =
  {
    Experiment.id = "E20";
    title = "Caches enhance the mature application, not the new one";
    paper_claim =
      "\"The desire to improve important applications (e.g., the Web), \
       leads to the deployment of caches, mirror sites, kludges to the \
       DNS and so on ... an increasing focus on improving existing \
       applications at the expense of new ones\" — the web gets faster, \
       the unproven application does not, and the gap is itself a \
       barrier to innovation.  (And the cache must peek: end-to-end \
       encryption forfeits the enhancement, the user's choice from E9.)";
    run;
    sweep = None;
  }
