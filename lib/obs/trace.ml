type event = {
  name : string;
  cat : string;
  args : (string * string) list;
  ts_ns : int64;
  dur_ns : int64;
  domain : int;
}

let ring =
  Ring.create ~compare:(fun a b ->
      match Int64.compare a.ts_ns b.ts_ns with
      | 0 -> Int64.compare b.dur_ns a.dur_ns
      | c -> c)

let enabled_flag = Ring.flag ring
let enable () = Ring.enable ring
let disable () = Ring.disable ring
let enabled () = Atomic.get enabled_flag

type span = {
  sp_name : string;
  sp_cat : string;
  sp_args : (string * string) list;
  sp_t0 : int64; (* -1 when the span was begun while disabled *)
}

let disabled_span = { sp_name = ""; sp_cat = ""; sp_args = []; sp_t0 = -1L }

let begin_span ?(cat = "") ?(args = []) name =
  if not (enabled ()) then disabled_span
  else { sp_name = name; sp_cat = cat; sp_args = args; sp_t0 = Clock.now_ns () }

let end_span sp =
  if sp.sp_t0 >= 0L && enabled () then
    let t1 = Clock.now_ns () in
    Ring.push ring
      {
        name = sp.sp_name;
        cat = sp.sp_cat;
        args = sp.sp_args;
        ts_ns = sp.sp_t0;
        dur_ns = Int64.max 0L (Int64.sub t1 sp.sp_t0);
        domain = (Domain.self () :> int);
      }

let with_span ?cat ?args name f =
  if not (enabled ()) then f ()
  else begin
    let sp = begin_span ?cat ?args name in
    match f () with
    | v ->
      end_span sp;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      end_span sp;
      Printexc.raise_with_backtrace e bt
  end

let reset () = Ring.reset ring
let events () = Ring.events ring
let dropped () = Ring.dropped ring

let to_chrome () =
  let evs = events () in
  let trace_events =
    List.map
      (fun e ->
        let fields =
          [
            ("name", Json.Str e.name);
            ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
            ("ph", Json.Str "X");
            ("ts", Json.Float (Clock.ns_to_us e.ts_ns));
            ("dur", Json.Float (Clock.ns_to_us e.dur_ns));
            ("pid", Json.Int 1);
            ("tid", Json.Int e.domain);
          ]
        in
        let fields =
          if e.args = [] then fields
          else
            fields
            @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) e.args)) ]
        in
        Json.Obj fields)
      evs
  in
  Json.Obj
    [
      ("traceEvents", Json.List trace_events);
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("dropped_spans", Json.Int (dropped ())) ]);
    ]

let write_chrome path = Json.to_file path (to_chrome ())
