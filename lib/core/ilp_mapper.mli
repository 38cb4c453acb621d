(** The ILP mapper: the paper's end-to-end flow (Fig. 7, ILP side).

    Builds the formulation from a DFG and an MRRG, hands it to an exact
    0-1 solver, and extracts a verified mapping.  Because the solvers
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
      (** dropping any single group makes the remainder satisfiable
          (for a Hall core: shown by one assignment per group that
          {!Hall.check_relaxations} accepted) *)
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

type evidence =
  | Hall
      (** the Hall step ({!Hall}) found a set of operations with fewer
          capable FU slots than members, and {!Hall.check_witness}
          accepted it; no model was solved *)
  | Drat
      (** an engine's search refuted the model; with [certified] its
          DRAT refutation was validated *)
(** What decided an [Infeasible] verdict. *)

val evidence_name : evidence -> string
(** ["hall"] or ["drat"], as the journal and the wire record spell it. *)

type info = {
  size : Formulation.size;
      (** the built model's {!Formulation.size}; for an explained Hall
          answer, the placement model's ({!Formulation.build_placement}:
          [n_r = n_rk = 0], [n_rows] its [place:]/[excl:] rows), and
          all zero for an unexplained one, which builds no model *)
  solve_seconds : float;
      (** the engine's search alone; for a Hall answer, the step and
          its checks *)
  build_seconds : float;
      (** everything before the search: the Hall step, the formulation
          build, the warm-start anneal when one ran and, on the native
          SAT engine, clausification; for an explained Hall answer,
          the placement model built for its core (0 without
          [explain]).  A resident session's repeat builds and
          clausifies nothing, so it counts only the wait for the
          session. *)
  objective_value : int option;  (** routing cost when optimising *)
  proven_optimal : bool;
  sat_calls : int;               (** SAT invocations; 0 for a Hall answer or an external solver *)
  certified : bool;
      (** the verdict carries validated evidence: a {!Check}-accepted
          mapping for [Mapped]; for a certified [Infeasible], a Hall
          witness {!Hall.check_witness} accepted or a
          {!Cgra_satoca.Drat}-validated refutation — of the whole
          model, or under [explain] of the core's rows alone (the same
          check that sets [core_verified]); always [false] for
          [Timeout] and for uncertified [Infeasible] runs *)
  proof_steps : int;
      (** DRAT derivation steps logged; 0 unless certifying, and 0 for
          a Hall answer.  Under [explain] an [Infeasible]'s steps are
          those of the core's refutation. *)
  diagnosis : diagnosis option;
      (** present only for an [Infeasible] verdict under [~explain:true]
          whose core extraction finished before the deadline *)
  evidence : evidence option;
      (** what decided an [Infeasible] verdict; [None] for [Mapped] and
          [Timeout] *)
}

type result =
  | Mapped of Mapping.t * info
  | Infeasible of info
  | Timeout of info

val map :
  ?objective:Formulation.objective ->
  ?solver:Solver_spec.t ->
  ?deadline:Cgra_util.Deadline.t ->
  ?warm_start:float ->
  ?certify:bool ->
  ?explain:bool ->
  Dfg.t ->
  Mrrg.t ->
  result
(** Defaults: [Feasibility] objective (a Table 2 style query),
    {!Solver_spec.default} (the paper formulation on the SAT engine),
    no deadline, no warm start.  Mappings are checked with {!Check}
    before being returned.

    [map] is {!prepare}, {!search} and its [conclude] on a fresh step
    that nothing keeps: a serve session's first query at an II runs
    the same three calls, so a one-shot answer is a session of size
    one.

    {b The Hall step.}  Before the formulation build, any warm start
    and any engine, [map] matches operations to the FU slots able to
    run them ({!Hall.search}).  A deficiency answers [Infeasible] with
    [evidence = Some Hall]: its witness must pass
    {!Hall.check_witness}, and [certified] follows [certify].  Without
    [explain] no model is built.  Under [explain] the core is the
    witness's [place:]/[excl:] groups ({!Hall.core_groups}), and only
    the rows they name are built: the placement model
    ({!Formulation.build_placement}), constraints (1)–(2) exactly as
    both formulations emit them, whatever [solver] names.
    [core_verified] comes from {!Hall.check_counting} on its rows,
    [core_minimized] from {!Hall.check_relaxations}, and
    [core_sat_calls], [sat_calls] and [proof_steps] are 0.  The step
    runs for every formulation and every solver; nothing disables it.
    Code that needs an engine's own refutation calls {!reprove}.

    [solver] picks the formulation and the solver in one value, parsed
    from a name by {!Solver_spec.of_name}.  The model the formulation
    builds is the model the engine solves: nothing rewrites it in
    between.  Every downstream stage — SAT encoding, certification,
    explanation, {!Check.run} validation — is formulation-agnostic, so
    either formulation gets the full pipeline.  A native answer
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

    A [deadline] carrying a cancellation flag
    ({!Cgra_util.Deadline.with_cancellation}) passes it to every
    deadline the call polls, the warm start's included: raising the
    flag from any domain makes the call return [Timeout] at the
    engine's next poll.  Portfolio racing uses this to stop losing
    engines.

    [warm_start] (default 0: none) bounds an annealing attempt, never
    past what is left of [deadline], whose verified solution, when
    found, seeds the exact engine's variable phases — the
    embedded-heuristic warm start of production MIP solvers.  A
    failed attempt seeds nothing and its time is lost, so it is off
    by default (EXPERIMENTS.md); the sweep's portfolio still races it.
    Completeness is unaffected: the exact engine decides.

    [certify] (default [false]) makes an [Infeasible] verdict carry a
    DRAT refutation, independently re-validated by
    {!Cgra_satoca.Drat.check} before the call returns.  Without
    [explain], the verdict solve itself is proof-logged (see
    {!Cgra_ilp.Solve.solve}); an external solver logs no DRAT, so its
    infeasibility stays uncertified.  With [explain], the verdict
    solve logs nothing and the certificate is the core's refutation
    (below), for every solver.
    [info.certified] reports whether the returned verdict carries
    validated evidence; a certificate cut short by the deadline yields
    [certified = false], not a failure.  The proof's replay polls
    [deadline] too ({!Cgra_satoca.Drat.check_until}), so a check never
    runs far past it.

    [explain] (default [false]) makes an [Infeasible] verdict carry a
    {!diagnosis}: a group-level unsat core extracted with
    {!Cgra_ilp.Unsat_core}, minimized, then certified under the same
    deadline by a DRAT-checked refutation of the core's rows alone
    ({!Cgra_ilp.Unsat_core.check}), and translated back to DFG/MRRG
    terms.  A deadline hit during extraction leaves
    [diagnosis = None], and a deadline hit during extraction or the
    core's refutation leaves the verdict uncertified.
    @raise Failure if the Hall witness fails its checker, if the
    solver returns an assignment the independent
    checker rejects, a DRAT certificate the independent checker
    refutes, or an unsat core whose rows are satisfiable (a bug, or an
    external solver contradicting the native one; never an input
    error). *)

type step
(** One II's answer state: the Hall step's deficiency, or the built
    model and, on the native engine, its clausified solver.  A
    serve session keeps one per II; {!map} searches one once. *)

val prepare :
  ?objective:Formulation.objective ->
  ?solver:Solver_spec.t ->
  ?deadline:Cgra_util.Deadline.t ->
  ?warm_start:float ->
  ?proof:Cgra_satoca.Proof.t ->
  Dfg.t ->
  Mrrg.t ->
  step
(** Run the Hall step and, when it finds no deficiency, build
    [solver]'s formulation, seed its phases from a [warm_start]
    anneal (default 0: none; it expires with [deadline] and shares its
    cancellation flag) and, on the native engine, clausify it
    ({!Cgra_ilp.Encode.encode}, logging into [proof] when given).  Defaults as in {!map}.  A step with a [proof] may be kept
    and searched again: the objective descent bounds by assumption, so
    the log only ever grows by the solver's own inferences, and it
    stops growing once a search maps: the solver's sink is detached
    then ({!Cgra_satoca.Solver.set_proof}), since a model with a
    solution can never be refuted.  An external solver keeps no solver
    and logs nothing into [proof]. *)

val solver_vars : step -> int
(** Variables of the step's kept SAT solver; 0 when it keeps none
    (tests: a repeated search must add none). *)

type answer = {
  search_stats : Cgra_satoca.Solver.stats;
      (** this search's share of the step's solver counters; all zero
          when no in-process SAT solver searched (a Hall answer, an
          external solver) *)
  resumed : bool;
      (** the step's kept SAT encoding had been searched before, so its
          learnt clauses and phases carried over; never for a Hall
          answer or an external solver, which keep no solver *)
  conclude : unit -> result;
      (** the verdict step: the Hall witness checks (under [explain],
          the counting certificate and relaxations too), or the
          engine's report read back through the formulation, where an
          assignment must pass {!Check.run} and an infeasibility is
          certified by the DRAT log the search wrote or, under
          [explain], through its core (see {!map}).  It reads the
          step's model without changing it (but for
          {!Cgra_ilp.Model}'s idempotent caches of rendered names), so
          it may run concurrently with other verdicts and with later
          searches of the step.
          @raise Failure as {!map} does. *)
}
(** What a search found, and the verdict step still to run on it. *)

val search :
  ?deadline:Cgra_util.Deadline.t ->
  started:float ->
  certify:bool ->
  explain:bool ->
  step ->
  answer
(** {!Cgra_ilp.Solve.search} on the step's encoding, which keeps the
    learnt clauses, phases and objective totalizer of earlier
    searches, or an external solver from scratch on the kept model.  A Hall step searches
    nothing; under [explain] it builds the placement model its core is
    checked against ({!Formulation.build_placement}), once, and keeps
    it.  [build_seconds] counts from
    [started], a {!Cgra_util.Deadline.now} reading.  Searches of one
    step must not run concurrently.
    @raise Invalid_argument (from [conclude]) unless the step's
    [proof] was given exactly when {!verdict_solve_needs_proof} holds
    of [certify] and [explain]. *)

val verdict_solve_needs_proof : certify:bool -> explain:bool -> bool
(** Whether the solve behind a verdict must log a DRAT proof: under
    [certify] without [explain].  With [explain] the certificate is
    the core's own refutation, which the verdict step logs itself. *)

val reprove :
  ?deadline:Cgra_util.Deadline.t -> solver:Solver_spec.t -> Dfg.t -> Mrrg.t -> result
(** [solver]'s engine alone on the cell's freshly built feasibility
    model: {!Cgra_ilp.Solve.solve_report} (a fresh encode and
    {!search}'s search) for the native engine, the LP export and
    subprocess for an external one.  No Hall step, no warm start,
    no proof; the answer becomes a [result] through the same verdict
    step as {!search}'s, so a [Mapped] mapping must pass {!Check.run}.
    [build_seconds] is the formulation build.  The sweep's cross-check
    and the fuzzer use it to have an engine re-prove a cell the Hall
    step decides.
    @raise Cgra_backend.Backend.Error as {!map} does.
    @raise Failure as {!map} does. *)

val pp_result : Format.formatter -> result -> unit

val pp_diagnosis : Format.formatter -> diagnosis -> unit
(** Multi-line rendering of a diagnosis: the core's labels followed by
    the conflicting operations, values and resources. *)
