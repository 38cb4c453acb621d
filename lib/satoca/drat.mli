(** Independent DRAT proof checker.

    Validates a {!Proof} trace against the input CNF it carries, using
    nothing from the solver that produced it: the checker re-implements
    unit propagation over its own clause database.  Each [Add] step must
    be RUP — assuming the negation of the clause and propagating over
    the clauses accepted so far must yield a conflict — or, failing
    that, RAT on its first literal (every resolvent on the pivot is
    RUP).  [Delete] steps drop a matching clause from the active set;
    deletions of unit or absent clauses are ignored, following the
    drat-trim convention.

    A trace certifies unsatisfiability only if, beyond every step
    checking, a contradiction is actually established: an empty clause
    is derived or root-level propagation conflicts. *)

type verdict = Valid | Invalid of string
    (** [Invalid] carries a diagnostic locating the first failing
        step. *)

val check : ?require_empty:bool -> Proof.t -> verdict
(** Replay and verify the whole trace.  With [require_empty] (default
    [true]) the verdict is [Valid] only for a complete refutation;
    setting it to [false] checks that every derivation step is sound
    without demanding a contradiction. *)

type replay =
  | Finished of verdict  (** the replay ran to its verdict *)
  | Unfinished  (** the deadline expired first; nothing was decided *)

val check_until : deadline:Cgra_util.Deadline.t -> Proof.t -> replay
(** {!check} (at its default [require_empty]) under a deadline, polled
    before the first step and every 128 steps after it.  A replay that
    finishes gives exactly {!check}'s verdict; an expired deadline
    gives [Unfinished] even on a valid proof. *)

val check_events : ?require_empty:bool -> Proof.event list -> verdict
(** Same, over a raw event list — the entry point for tampering tests
    and hand-written traces. *)

val errors : verdict -> string option
(** [None] for [Valid], the diagnostic otherwise. *)
