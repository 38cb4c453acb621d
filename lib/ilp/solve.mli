(** Engine-agnostic solving of 0-1 models.

    This is the stand-in for the paper's Gurobi call.  Every engine is
    complete, so the tri-state answer carries the same guarantees the
    paper relies on: a definite optimum, a definite infeasibility, or a
    timeout.

    - [Sat_backed] (default): clausify the model into the CDCL solver
      and minimise the objective by solution-improving descent over an
      incremental totalizer bound; the final UNSAT answer is the
      optimality proof.  Bounds are enforced as per-solve assumptions
      ({!Cgra_satoca.Solver.solve_with} on the totalizer output), so
      the clause database carries no bound units and stays reusable,
      proof-logged or not.  A DRAT trace therefore refutes the model
      itself or nothing: it certifies an [Infeasible] answer (the
      first solve's, before any bound exists), never the optimality
      of a descent.
    - [Branch_and_bound]: the direct PB branch-and-bound of {!Bnb}.
    - [Brute_force]: exhaustive enumeration (tests only; <= ~22 vars). *)

type engine = Sat_backed | Branch_and_bound | Brute_force

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
  sat_calls : int;  (** SAT invocations (descent steps); 0 for other engines *)
  stats : Cgra_satoca.Solver.stats;
      (** the counters of the SAT solver that produced (or certified)
          the verdict, this search's share of them
          ({!Cgra_satoca.Solver.stats_delta}); {!Cgra_satoca.Solver.zero_stats}
          when no in-process SAT solver ran *)
}

val solve :
  ?deadline:Cgra_util.Deadline.t ->
  ?engine:engine ->
  ?proof:Cgra_satoca.Proof.t ->
  ?inprocess:Cgra_satoca.Inprocess.config ->
  Model.t ->
  outcome
(** Solve the model.  No engine rewrites it first: the model handed
    in is the one clausified or searched, with or without [proof].

    When [proof] is supplied, an [Infeasible] answer leaves a complete
    DRAT refutation of the clausified model in the trace, checkable
    with {!Cgra_satoca.Drat.check}.  For [Sat_backed] the trace is
    captured in-line; the descent's bounds are assumptions, so its
    final UNSAT logs no refutation.  The non-clausal engines
    cross-certify: their [Infeasible] answer triggers one
    proof-logging SAT refutation of the same model, and an engine
    disagreement raises [Failure].  If a deadline cuts certification
    short the trace simply lacks an empty clause
    ({!Cgra_satoca.Proof.has_empty_clause} is [false]). *)

val solve_report :
  ?deadline:Cgra_util.Deadline.t ->
  ?engine:engine ->
  ?proof:Cgra_satoca.Proof.t ->
  ?inprocess:Cgra_satoca.Inprocess.config ->
  Model.t ->
  report
(** Like {!solve} with timing and search statistics.  [inprocess]
    overrides the SAT solver's inprocessing configuration (see
    {!Encode.encode}); the benchmark harness uses it for on/off A-B
    runs. *)

val search :
  ?deadline:Cgra_util.Deadline.t ->
  Encode.t ->
  Model.t ->
  report
(** The [Sat_backed] engine's search over an existing encoding of the
    model: one solve, then the objective descent when the model has an
    objective.  {!solve_report} runs it on a fresh {!Encode.encode};
    a serve session runs it again and again on one resident encoding,
    whose learnt clauses and phases carry over.  The report's [stats]
    are this search's share of the solver's cumulative counters
    ({!Cgra_satoca.Solver.stats_delta}).  The descent builds the
    objective's totalizer once per encoding ({!Encode.t}[.totalizer])
    and bounds it by assumption, so repeated searches add no clauses
    or variables, whether or not the solver logs a proof.
    [solve_seconds] is the search alone. *)

val pp_outcome : Format.formatter -> outcome -> unit
