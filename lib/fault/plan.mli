(** Declarative fault plans.

    A plan is a list of episodes, each scoped to a time window, that
    {!Inject.install} compiles into timed {!Tussle_netsim.Engine}
    events.  Plans are plain data: build them by hand, or draw
    reproducible ones from a seeded rng with {!random}.  The same plan
    plus the same injection seed yields byte-identical simulations. *)

type window = { from_s : float; until_s : float }
(** Half-open activity window [\[from_s, until_s)].  [until_s] may be
    [infinity] for a fault that never clears (no restore event is
    scheduled). *)

type spec =
  | Link_down of { u : int; v : int; w : window }
      (** both directions of (u, v) drop everything offered *)
  | Link_loss of { u : int; v : int; w : window; prob : float }
      (** per-packet on-the-wire loss *)
  | Link_corrupt of { u : int; v : int; w : window; prob : float }
      (** per-packet corruption (capacity still consumed) *)
  | Latency_spike of { u : int; v : int; w : window; extra_s : float }
      (** additive propagation latency *)
  | Node_crash of { node : int; w : window }
      (** every link incident to [node] goes down, then restores *)
  | Middlebox_break of { node : int; w : window; covert : bool }
      (** a deployed device at [node] fails closed and drops all
          transit traffic; a {e covert} failure gives no error
          information while a revealing one names itself to probes —
          the §VI-A distinction diagnosis tools must survive *)
  | Gray_loss of { u : int; v : int; w : window; prob : float }
      (** a gray failure: data packets crossing (u, v) drop with
          probability [prob] while control-plane liveness probes keep
          passing — structurally invisible to hello-based detection *)
  | Unidirectional_down of { u : int; v : int; w : window }
      (** only the u->v direction of the adjacency drops traffic; the
          v->u direction stays healthy *)
  | Link_flap of {
      u : int;
      v : int;
      w : window;
      period_s : float;
      duty : float;
    }
      (** periodic up/down inside the window: each [period_s] the link
          goes down for [duty * period_s], then back up; restored at
          window close.  The window must be finite, the period positive
          and the duty in (0,1). *)
  | Blackhole of { node : int; w : window }
      (** a Byzantine node: answers control-plane hellos and accepts
          traffic addressed to itself, but silently discards every
          packet it would have forwarded for others *)

type t = spec list

val window : float -> float -> window
(** [window from until]; validated by {!validate}/[Inject.install]. *)

val always : window
(** [{from_s = 0.; until_s = infinity}]: active for the whole run. *)

val validate : t -> unit
(** Raises [Invalid_argument] on a malformed plan: negative or
    non-finite [from_s], [until_s <= from_s], probability outside
    [0,1], negative latency spike, a negative node id, [u = v], an
    infinite flap window, a non-positive flap period, a flap window
    holding more than 10,000 periods (checked by division, so a plan
    read from a file cannot make [Inject.install] schedule millions of
    toggles), or a flap duty outside (0,1). *)

val target : spec -> [ `Link of int * int | `Node of int ]
(** What an episode acts on: the link [(u, v)] of a link-scoped
    episode ([u -> v] for [Unidirectional_down]), or the node of a
    [Node_crash], [Middlebox_break] or [Blackhole]. *)

val toggles : spec -> (float * bool) list
(** The times a valid episode turns on ([true]) and off ([false]), in
    the order {!Inject.install} schedules them: a window's open, then
    its close if finite; a flap's down at [from + k*period] ([true]),
    then its up [duty*period] later ([false]) when that falls inside
    the window, for each k, then the restore at window close
    ([false]). *)

val transitions : t -> int
(** Total control-observable fault transitions the plan drives: the
    length of every episode's {!toggles}.  A finite-window episode
    counts 2, an infinite one 1, a flap every toggle plus the restore.
    The damping-bounds-reconvergence invariant uses this as the
    normalizer for a run's reconvergence count. *)

val broken_device_name : string
(** Middlebox name installed by [Middlebox_break] episodes
    (["broken-device"]); what a revealing failure confesses as. *)

val random :
  ?extended:bool ->
  Tussle_prelude.Rng.t ->
  links:(int * int) list ->
  horizon:float ->
  episodes:int ->
  t
(** [random rng ~links ~horizon ~episodes] draws [episodes] episodes
    uniformly over the full grammar — down / loss / corrupt /
    latency-spike / node-crash / gray-loss / unidirectional-down /
    flap / blackhole — over the given links (node-scoped episodes
    target link endpoints), with windows inside [\[0, horizon)].
    [~extended:false] restricts the draw to the four legacy link-level
    kinds (down / loss / corrupt / latency-spike), the pre-gray
    grammar tests use as a contrast.  Equal rng states yield equal
    plans.  Raises [Invalid_argument] on an empty [links] list,
    non-positive [horizon] or negative [episodes]. *)

val mutation_horizon_factor : float
(** Mutated windows are capped at [mutation_horizon_factor * horizon]
    (4.0).  Past the scenario's nominal horizon — so a mutant can leave
    a fault open across the run's end, a shape {!random} never draws —
    but bounded, so compounding widens across search generations cannot
    creep toward the chaos guard horizon. *)

val mutate :
  Tussle_prelude.Rng.t -> links:(int * int) list -> horizon:float -> t -> t
(** [mutate rng ~links ~horizon plan] applies one structural mutation:
    add a fresh random episode, remove one, widen or shift an episode's
    window (clamped to [\[0, mutation_horizon_factor * horizon\]]),
    perturb a probability / latency magnitude, or retarget an episode
    to another link.  A mutated flap's period rises, if need be, until
    its window holds at most 5,000 periods.  The result always passes
    {!validate}.  Equal rng
    states and inputs yield equal mutants — the adversarial search
    derives every mutation purely from [(seed, index)].  Raises
    [Invalid_argument] on an empty [links] list or non-positive
    [horizon]. *)

val spec_string : spec -> string
(** One episode rendered in the [to_string] line format, e.g.
    ["link 1-2 down [0.2, 0.9)"].  Used by the flight recorder's
    fault-open/fault-close events and by [tussle explain] when naming
    the episode a drop is attributed to. *)

val to_string : t -> string
(** One line per episode.  Human-readable {e and} lossless: floats are
    printed with enough digits to round-trip exactly, so
    [of_string (to_string p) = Ok p] for any valid plan — the chaos
    corpus persists plans through this format. *)

val of_string : string -> (t, string) result
(** Parse the [to_string] format back into a plan.  Blank lines and
    lines starting with [#] are skipped (corpus files carry headers as
    comments).  Node ids must be [>= 0]; a NaN keeps its sign but not
    its payload (["nan(123)"] reads as ["nan"]), so whatever parses
    survives [to_string] bit for bit.  [Error] is ["line N: MSG"] for
    the first offending line; it never raises.  The result is
    {e not} validated: run {!validate} before installing it. *)
