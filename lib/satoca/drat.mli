(** Independent proof checker.

    Validates a {!Proof} log against the input CNF it carries, using
    nothing from the solver that produced it.  Each lemma is checked by
    its hints alone (LRAT): the checker assigns the lemma's negation and
    walks the hinted clauses in order; each must be unit under the
    assignment so far (its one open literal is then assigned) or
    falsified, which ends the walk and proves the lemma.  A hint that
    names a clause not logged before the lemma, or one deleted since, a
    hint that is neither unit nor falsified, and hints that run out
    before a falsified clause all reject the log.  There are no watches,
    no propagation search and no RAT: a lemma costs the literals of the
    clauses it cites, so a check costs about as much as reading the log.
    A deletion must name a live clause.

    A log certifies unsatisfiability only if, beyond every lemma
    checking, it contains an empty input or lemma. *)

type verdict = Valid | Invalid of string
    (** [Invalid] carries a diagnostic locating the first failing
        record. *)

val check : ?require_empty:bool -> Proof.t -> verdict
(** Check the whole log.  With [require_empty] (default [true]) the
    verdict is [Valid] only for a complete refutation; setting it to
    [false] checks that every lemma is sound without demanding a
    contradiction. *)

type replay =
  | Finished of verdict  (** the check ran to its verdict *)
  | Unfinished  (** the deadline expired first; nothing was decided *)

val check_until : deadline:Cgra_util.Deadline.t -> Proof.t -> replay
(** {!check} (at its default [require_empty]) under a deadline, polled
    before the first record and every 128 records after it.  A check
    that finishes gives exactly {!check}'s verdict; an expired deadline
    gives [Unfinished] even on a valid proof. *)

val errors : verdict -> string option
(** [None] for [Valid], the diagnostic otherwise. *)
