(** Solving 0-1 models with the in-process CDCL SAT solver.

    This is the stand-in for the paper's Gurobi call.  The search is
    complete, so the tri-state answer carries the same guarantees the
    paper relies on: a definite optimum, a definite infeasibility, or a
    timeout.

    The model is clausified into the solver ({!Encode.encode}) and the
    objective minimised by solution-improving descent over an
    incremental totalizer bound; the final UNSAT answer is the
    optimality proof.  Bounds are enforced as per-solve assumptions
    ({!Cgra_satoca.Solver.solve_with} on the totalizer output), so the
    clause database carries no bound units and stays reusable,
    proof-logged or not.  A DRAT trace therefore refutes the model
    itself or nothing: it certifies an [Infeasible] answer (the first
    solve's, before any bound exists), never the optimality of a
    descent. *)

type outcome =
  | Optimal of bool array * int
      (** assignment over the model's variables, objective value *)
  | Feasible of bool array * int
      (** deadline hit during optimisation; best incumbent returned *)
  | Infeasible  (** proven: no assignment satisfies the rows *)
  | Timeout     (** deadline hit before any feasible point was found *)

type report = {
  outcome : outcome;
  solve_seconds : float;
  sat_calls : int;  (** SAT invocations (the first solve and each descent step) *)
  stats : Cgra_satoca.Solver.stats;
      (** the counters of the SAT solver that produced (or certified)
          the verdict, this search's share of them
          ({!Cgra_satoca.Solver.stats_delta}) *)
}

val solve :
  ?deadline:Cgra_util.Deadline.t ->
  ?proof:Cgra_satoca.Proof.t ->
  ?inprocess:Cgra_satoca.Inprocess.config ->
  Model.t ->
  outcome
(** Solve the model: {!solve_report}'s outcome.  The model handed in
    is the one clausified, with or without [proof]: nothing rewrites
    it first.

    When [proof] is supplied, an [Infeasible] answer leaves a complete
    DRAT refutation of the clausified model in the trace, checkable
    with {!Cgra_satoca.Drat.check}.  The descent's bounds are
    assumptions, so its final UNSAT logs no refutation. *)

val solve_report :
  ?deadline:Cgra_util.Deadline.t ->
  ?proof:Cgra_satoca.Proof.t ->
  ?inprocess:Cgra_satoca.Inprocess.config ->
  Model.t ->
  report
(** {!Encode.encode} followed by {!search}, with [solve_seconds]
    counting both.  [inprocess] overrides the SAT solver's
    inprocessing configuration (see {!Encode.encode}); the benchmark
    harness uses it for on/off A-B runs. *)

val search :
  ?deadline:Cgra_util.Deadline.t ->
  Encode.t ->
  Model.t ->
  report
(** The search over an existing encoding of the model: one solve,
    then the objective descent when the model has an objective.  {!solve_report} runs it on a fresh {!Encode.encode};
    a serve session runs it again and again on one resident encoding,
    whose learnt clauses and phases carry over.  The report's [stats]
    are this search's share of the solver's cumulative counters
    ({!Cgra_satoca.Solver.stats_delta}).  The descent builds the
    objective's totalizer once per encoding ({!Encode.t}[.totalizer])
    and bounds it by assumption, so repeated searches add no clauses
    or variables, whether or not the solver logs a proof.
    [solve_seconds] is the search alone. *)

val pp_outcome : Format.formatter -> outcome -> unit
