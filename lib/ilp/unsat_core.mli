(** Explainable infeasibility: group-level unsat cores of 0-1 models.

    An [Infeasible] verdict from a complete engine proves that no
    assignment exists, but says nothing about {e why}.  This module
    localises the blame: the model's rows are partitioned into named
    constraint groups (the [?group] label of {!Model.add_row}), each
    group is compiled to one selector literal guarding its clauses
    ({!Encode.encode_grouped}), and the whole set of selectors is
    solved as assumptions ({!Cgra_satoca.Solver.solve_with}).  When the
    answer is [Unsat], the failed assumptions name a subset of groups
    that is infeasible on its own (together with the ungrouped hard
    rows) — an {e unsat core} in human-meaningful labels such as
    [place:op7] or [route:val3].

    Cores from final-conflict analysis are sound but often loose;
    shrinking tightens them to a {e minimal} core (every member
    necessary).  The shrink runs on a second, smaller grouped encoding
    ({!Encode.encode_grouped}[ ~keep]) holding only the hard rows and
    the rows of the first failed set's groups, once the full one has
    been dropped: an unassumed selector frees its group on either
    encoding, so each probe answers as it would on the full one.  Its
    probes are [solve_with] calls on that one incremental solver, each
    dropping a chunk of [k] candidates (QuickXplain's chunks), [k]
    starting at a quarter of the failed set.  An [Unsat] answer keeps
    only its failed subset and doubles [k]; a [Sat] answer halves [k]
    and retries the same candidates, except at [k = 1], where it
    proves the candidate necessary and the next probe drops two.
    {!check} then certifies a core with a DRAT-checked refutation of
    its rows alone, which also certifies the model's infeasibility. *)

type core = {
  groups : string list;
      (** group labels whose conjunction (plus hard rows) is
          infeasible, in model-construction order *)
  minimized : bool;
      (** the core is minimal: dropping any single group makes the
          remainder satisfiable.  [false] when shrinking was skipped or
          cut short by the deadline (the core is still sound). *)
  sat_calls : int;  (** incremental SAT calls spent, shrinking included *)
}

type verdict =
  | Core of core        (** the model is infeasible; here is the blame *)
  | Satisfiable         (** nothing to explain *)
  | Unknown             (** deadline expired before the first answer *)

val extract :
  ?deadline:Cgra_util.Deadline.t -> ?minimize:bool -> Model.t -> verdict
(** Decide the model with every group selectable and, on infeasibility,
    return a core of group labels.  [minimize] (default [true])
    applies the chunked shrink under the same deadline; a deadline hit
    mid-shrink, or already passed when the first answer comes back,
    returns the best sound core found so far with
    [minimized = false].  A model whose hard rows are themselves
    contradictory yields an empty core. *)

val check :
  ?deadline:Cgra_util.Deadline.t ->
  ?proof:Cgra_satoca.Proof.t ->
  Model.t ->
  string list ->
  bool option
(** [check model labels] certifies a core.  It clausifies only the
    rows of the named groups plus the hard (ungrouped) rows into a
    fresh proof-logged solver ({!Encode.encode}[ ~keep]) and solves.
    [Some true] means the solver refuted those rows {e and}
    {!Cgra_satoca.Drat.check_until} accepted the refutation.  Those
    rows are a subset of the model's, so the same refutation certifies
    that the whole model is infeasible.  [Some false] means the named
    groups plus the hard rows are satisfiable.  [None] means the
    deadline expired, during the solve or the refutation's replay.
    [proof] (default: a fresh trace) receives the refutation, e.g. to
    count its steps.
    @raise Failure if the checker rejects the refutation (a solver
    bug, never an input error). *)

val restrict : Model.t -> string list -> Model.t
(** A copy of the model containing all variables, the hard rows, and
    exactly the rows of the named groups (objective dropped to
    [Feasibility]) — the core as a standalone model, convenient for
    brute-force cross-checks and LP export. *)
