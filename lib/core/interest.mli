(** Issues and stances: the axes along which stakeholders contend.

    A {e stance} assigns each issue a weight in [-1, 1]: +1 means the
    actor wants the issue maximized (e.g. a user on [Privacy]), -1
    minimized (e.g. a wiretapping government on the same axis).  An
    actor's utility for an outcome is the {!dot} of its stance with
    the outcome's stance ({!Actor.utility}). *)

type issue =
  | Transparency  (** packets go in, packets come out *)
  | Privacy
  | Control  (** operator/state ability to constrain use *)
  | Revenue
  | Openness  (** low barriers to new applications and providers *)
  | Security
  | Innovation
  | Accountability

type stance = (issue * float) list
(** Missing issues weigh 0.  Construction clamps weights to [-1, 1]. *)

val make : (issue * float) list -> stance
(** Clamp weights and drop duplicate issues (first binding wins). *)

val weight : stance -> issue -> float

val dot : stance -> stance -> float
(** Raw inner product over all issues. *)

val combine : stance list -> stance
(** Issue-wise sum, clamped to [-1, 1]. *)

val pp : Format.formatter -> stance -> unit
