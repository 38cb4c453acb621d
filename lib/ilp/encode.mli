(** Clausification of 0-1 models into the SAT solver.

    Every row is normalised to [sum of weighted literals <= k] form and
    encoded with the cheapest adequate device: plain clauses for
    implication-like rows, at-most-one ladders for exclusivity rows,
    and sequential counters in the general case.  ILP variable [v] maps
    to SAT variable [v] (auxiliary encoding variables come after).

    One model gets one solver: {!encode} is the encoding every
    in-process SAT query searches, one-shot or resident in a serve
    session (one per II), and {!encode_grouped} the unsat-core
    extractor's selector-guarded twin. *)

type t = {
  solver : Cgra_satoca.Solver.t;
  objective_lits : (int * Cgra_satoca.Lit.t) list;
      (** positive-weight literals whose weighted sum, plus
          [objective_offset], equals the model objective *)
  objective_offset : int;
  mutable totalizer : Cgra_satoca.Card.Totalizer.t option;
      (** the objective's totalizer over [objective_lits], built by the
          first objective descent that bounds the objective
          ({!Solve.search}) with outputs up to its first incumbent, and
          reused by every later descent on this encoding, so a repeated
          search adds no variables *)
}

val encode :
  ?proof:Cgra_satoca.Proof.t ->
  ?inprocess:Cgra_satoca.Inprocess.config ->
  ?keep:(int -> bool) ->
  Model.t ->
  t
(** Build a solver containing the full model.  If a row is trivially
    unsatisfiable the solver is already in the [not ok] state.  When
    [proof] is given it is attached before any clause is added, so the
    trace's input set is exactly the clausified model (plus the
    totalizer a later objective descent adds).

    [keep] (default: every row) clausifies only the rows whose index
    it accepts; all model variables are still allocated, so
    {!assignment} reads the same layout.  A refutation of the kept
    rows refutes the whole model — the basis of
    {!Unsat_core.check}'s core certificate.

    The solver gets the {!Cgra_satoca.Inprocess} scheduler installed;
    [inprocess] overrides its configuration (default:
    {!Cgra_satoca.Inprocess.all_on}, failed-literal probing on).
    Inprocessing is DRAT-transparent, so it composes with [proof]. *)

val assignment : t -> Model.t -> bool array
(** Read back the model-variable assignment after a [Sat] answer. *)

type grouped = {
  g_solver : Cgra_satoca.Solver.t;
  selectors : (string * Cgra_satoca.Lit.t) list;
      (** one selector literal per constraint group, in first-use
          order; assuming a selector true enforces its group's rows *)
}

val encode_grouped : ?keep:(int -> bool) -> Model.t -> grouped
(** Clausify the model with each constraint group relativised to a
    fresh selector literal: every clause of a row in group [g] gets
    [~s_g] appended, so the group is enforced exactly when [s_g] is
    assumed (see {!Cgra_satoca.Solver.solve_with}).  Ungrouped rows are
    encoded hard.  Solving under all selectors is decision-equivalent
    to {!encode} + solve; an [Unsat]'s failed assumptions name the
    groups in conflict — the raw material of {!Unsat_core}.

    [keep] (default: every row) clausifies only the rows whose index it
    accepts, as in {!encode}, and only the groups with a kept row get a
    selector, in first-use order among the kept rows.  An unassumed selector frees its group's rows, so for
    any set [S] of those groups, solving under [S]'s selectors answers
    the same on the restricted encoding as on the full one when [keep]
    accepts every hard row and every row of [S]'s groups. *)
