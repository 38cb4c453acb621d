(** The ILP mapper: the paper's end-to-end flow (Fig. 7, ILP side).

    Builds the formulation from a DFG and an MRRG, hands it to an exact
    0-1 engine, and extracts a verified mapping.  Because the engines
    are complete, [Infeasible] is a {e proof} that no mapping exists —
    the property that distinguishes this mapper from heuristics. *)

module Dfg := Cgra_dfg.Dfg
module Mrrg := Cgra_mrrg.Mrrg

type diagnosis = {
  core : string list;
      (** constraint-group labels ([place:]/[excl:]/[route:val], see
          {!Formulation.group_subject}) whose conjunction with the hard
          rows is infeasible *)
  core_minimized : bool;
      (** dropping any single group makes the remainder satisfiable *)
  core_verified : bool;
      (** the core's rows alone (its groups plus the ungrouped rows)
          were refuted and {!Cgra_satoca.Drat} validated the refutation
          ({!Cgra_ilp.Unsat_core.check}); [false] only when the
          deadline expired before verification finished *)
  core_sat_calls : int;  (** incremental SAT calls spent on extraction *)
  conflict_ops : string list;      (** operations named by [place:] groups *)
  conflict_values : string list;
      (** values named by [route:] groups, rendered producer -> sinks *)
  conflict_resources : string list;  (** MRRG nodes named by [excl:] groups *)
}
(** An infeasibility explanation in mapping vocabulary: which placement,
    routing and exclusivity obligations cannot be met together. *)

type info = {
  size : Formulation.size;
  solve_seconds : float;
  build_seconds : float;
  build_phases : (string * float) list;
      (** {!Formulation.profile_fields} of the model construction:
          labelled wall-clock seconds per encode phase ([placement],
          [corridors], [routing_rows], [exclusivity], [total]).
          [build_seconds] additionally includes the warm-start attempt;
          [build_phases] is the formulation alone. *)
  objective_value : int option;  (** routing cost when optimising *)
  proven_optimal : bool;
  sat_calls : int;               (** SAT invocations; 0 for non-SAT engines *)
  certified : bool;
      (** the verdict carries validated evidence: a {!Check}-accepted
          mapping for [Mapped], a {!Cgra_satoca.Drat}-validated
          refutation for a certified [Infeasible] — of the whole model,
          or under [explain] of the core's rows alone (the same check
          that sets [core_verified]); always [false] for [Timeout] and
          for uncertified [Infeasible] runs *)
  proof_steps : int;
      (** DRAT derivation steps logged; 0 unless certifying.  Under
          [explain] an [Infeasible]'s steps are those of the core's
          refutation. *)
  inprocess : (string * int) list;
      (** SAT inprocessing counters ([probed_failed]) of the solver
          behind the verdict; empty when no in-process
          SAT solver ran (external backends, pure B&B feasible
          answers) *)
  diagnosis : diagnosis option;
      (** present only for an [Infeasible] verdict under [~explain:true]
          whose core extraction finished before the deadline *)
}

type result =
  | Mapped of Mapping.t * info
  | Infeasible of info
  | Timeout of info

val map :
  ?objective:Formulation.objective ->
  ?solver:Solver_spec.t ->
  ?deadline:Cgra_util.Deadline.t ->
  ?cancel:bool Atomic.t ->
  ?warm_start:float ->
  ?certify:bool ->
  ?explain:bool ->
  Dfg.t ->
  Mrrg.t ->
  result
(** Defaults: [Feasibility] objective (a Table 2 style query),
    {!Solver_spec.default} (the paper formulation on the SAT engine),
    no deadline.  Mappings are checked with {!Check} before being
    returned.

    [solver] picks the formulation and the solver in one value, parsed
    from a name by {!Solver_spec.of_name}.  The model the formulation
    builds is the model the engine solves: nothing rewrites it in
    between.  Every downstream stage — SAT encoding, certification,
    explanation, {!Check.run} validation — is formulation-agnostic, so
    any registered formulation gets the full pipeline.  A native answer
    and an external one take the same verdict path.  An external solver
    (["highs"], ["cbc"], ["scip"]) gets the model as an LP file, runs
    as a subprocess under the deadline, and its parsed answer is
    replayed: the assignment is checked row-by-row against the model,
    the objective is recomputed, and the extracted mapping must pass
    {!Check.run}, so a [Mapped] verdict is [certified] exactly like a
    native one.  An external [Infeasible] is the solver's word: no DRAT
    trace exists, so without [explain] it stays [certified = false].
    [explain] still works (the native core extractor re-derives the
    conflict) and, under [certify], certifies it through the core.
    The sweep's [--cross-check] exists to diff such verdicts.
    [warm_start] is forced to 0 for an external solver.
    @raise Cgra_backend.Backend.Error on a missing solver binary or an
    external answer that fails replay.

    {b Reentrancy.}  [map] is the single-job entry point of the
    parallel sweep engine: it holds no global mutable state — the
    formulation, the solver instance and the annealer's RNG are all
    created per call — so concurrent calls from several domains are
    safe, provided each call gets its own [Dfg.t]/[Mrrg.t] (or shares
    frozen, no-longer-mutated ones read-only).

    [cancel] attaches a shared cancellation flag to every deadline the
    call polls (including the warm start's internal deadline): raising
    the flag from any domain makes the call return [Timeout] at the
    engine's next poll.  Portfolio racing uses this to stop losing
    engines.

    [warm_start] (default 5 seconds; 0 disables) bounds a quick
    annealing attempt, never past what is left of [deadline], whose
    verified solution, when found, seeds the exact engine's variable
    phases — the standard embedded-heuristic warm start of production
    MIP solvers.  Completeness is unaffected: the answer is still
    decided by the exact engine.

    [certify] (default [false]) makes an [Infeasible] verdict carry a
    DRAT refutation, independently re-validated by
    {!Cgra_satoca.Drat.check} before the call returns.  Without
    [explain], the verdict solve itself is proof-logged and the B&B
    engine cross-certifies through a proof-logging SAT run (see
    {!Cgra_ilp.Solve.solve}).  With [explain], the verdict solve logs
    nothing and the certificate is the core's refutation (below), for
    every solver.
    [info.certified] reports whether the returned verdict carries
    validated evidence; a certificate cut short by the deadline yields
    [certified = false], not a failure.

    [explain] (default [false]) makes an [Infeasible] verdict carry a
    {!diagnosis}: a group-level unsat core extracted with
    {!Cgra_ilp.Unsat_core}, minimized, then certified under the same
    deadline by a DRAT-checked refutation of the core's rows alone
    ({!Cgra_ilp.Unsat_core.check}), and translated back to DFG/MRRG
    terms.  A deadline hit during extraction leaves
    [diagnosis = None], and a deadline hit during extraction or the
    core's refutation leaves the verdict uncertified.
    @raise Failure if the solver returns an assignment the independent
    checker rejects, a DRAT certificate the independent checker
    refutes, or an unsat core whose rows are satisfiable (a bug, or an
    external solver contradicting the native one; never an input
    error). *)

val result_feasible : result -> bool
val pp_result : Format.formatter -> result -> unit

val pp_diagnosis : Format.formatter -> diagnosis -> unit
(** Multi-line rendering of a diagnosis: the core's labels followed by
    the conflicting operations, values and resources. *)
