(* What every workload hands the harness.  A workload turns the seed
   into its inputs once ([setup]); the harness then times [op] over
   whole cycles of those inputs, and a traced run times [traced_op],
   which makes the same calls with a span around each call into a
   layer and counts taken at the same boundaries. *)

type instance = {
  cycle : int;  (** distinct ops; op [k] of a run uses input [k mod cycle] *)
  op : int -> (unit, string) result;
      (** run op [i] and check its output; [Error] is a failed op *)
  traced_op : Spans.t -> op:int -> int -> (unit, string) result;
      (** the same op with spans; [op] is the span op id *)
  per_layer : Spans.t -> ops:int -> (string * float) list;
      (** per-layer metrics derived from a traced phase of [ops] ops *)
}

type t = {
  name : string;
  reference : Host.kernel;  (** the host-speed reference it is scaled by *)
  setup : seed:int -> plant:int -> instance;
}
(** [plant] > 0 asks the workload to corrupt every [plant]-th op's
    input so that the op fails; only [explain] does, for the
    self-test.  A measured run passes 0. *)

let ms x = 1e3 *. x
let us x = 1e6 *. x
let per k n = if n = 0 then 0. else k /. float_of_int n

(* Words allocated by the whole program so far, all domains included:
   [Gc.quick_stat] sums every domain's counters, unlike
   [Gc.allocated_bytes], which reads only the calling domain.  The
   runtime credits major-heap words only at its next major slice, so a
   full major collection comes first: it settles the counters, and it
   starts the GC schedule that follows from the same state in every
   process, which makes the words counted between two reads repeat
   exactly.  Never call it inside a timed span. *)
let words () =
  Gc.full_major ();
  let s = Gc.quick_stat () in
  s.minor_words +. s.major_words -. s.promoted_words

let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

(* The hooks an op body calls at each layer boundary: spans and counts
   in the traced run, nothing in the untraced one. *)
type probe = {
  step : 'a. string -> (unit -> 'a) -> 'a;
  count : string -> float -> unit;
}

let untraced = { step = (fun _ f -> f ()); count = (fun _ _ -> ()) }
let traced sp ~op = { step = (fun name f -> Spans.span sp ~op name f); count = Spans.count sp }
