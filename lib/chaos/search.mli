(** The adversarial search over fault-plan space ([tussle search]).

    One batch loop evaluates candidate plans on {!Tussle_prelude.Pool.map},
    records each run's behavior {!Signature} as the coverage frontier,
    and resolves every violation (shrink, explain, persist) through
    {!Sweep.resolve}, as the chaos sweep does.  A backend is only the
    generator of the next batch.  Every candidate derives from
    [(seed, global candidate index)] and batch boundaries are fixed by
    candidate count, so the report is byte-identical for any
    [--domains] count and across repeats. *)

type backend =
  | Mutate
      (** coverage-guided mutation: phase 0 runs the seed set (every
          usable corpus entry, then one fresh {!Tussle_fault.Plan.random}
          draw per scenario) as one batch, and its clean plans become
          the live corpus; then batches of 32 mutants, each 1-3
          {!Tussle_fault.Plan.mutate} steps from a live parent picked
          as the corpus stood at the batch boundary.  A clean mutant
          with an unseen signature joins the live corpus.  Open-ended:
          it spends its whole budget and never certifies. *)
  | Exhaust
      (** bounded-exhaustive enumeration, 64 plans a batch, of a small
          quantized grammar: per scenario link a down, a loss (p 0.2),
          a gray loss (p 0.5), a flap (period h/4, duty 0.5) and each
          one-way down; per node a blackhole; all over four windows
          (from 0 or h/2, lasting h/2 or h); closed under plans of at
          most two episodes (unordered pairs).  Enumerating the whole
          box clean {e certifies} it: no plan in the grammar violates
          any invariant. *)

val backends : backend list
(** [[Mutate; Exhaust]]. *)

val backend_name : backend -> string
(** ["mutate"] or ["exhaust"], as the report and [--backend] spell it. *)

val backend_of_string : string -> (backend, string) result
(** The backend named by the trimmed string; [Error "invalid backend
    \"S\" (expected mutate or exhaust)"] otherwise. *)

val run :
  ?corpus_dir:string ->
  backend:backend ->
  scenarios:Scenario.t list ->
  seed:int ->
  budget:int ->
  unit ->
  Tussle_obs.Search_report.t
(** Evaluate up to [budget] plans against [scenarios] and report, with
    label ["search"].  With [corpus_dir], {!Mutate} is seeded from its
    entries (one that does not {!Scenario.fits} a scenario it names is
    skipped; a missing directory seeds nothing, the first save creates
    it) and every new 1-minimal reproducer is saved there.  Raises
    [Invalid_argument] on [budget < 1] or no scenarios, and [Sys_error]
    when the corpus cannot be read (it is a file) or written; the read
    is checked before any plan runs, whichever the backend. *)
