(** A resident solving session for one (DFG, architecture, solver).

    The daemon's tier-2 cache value: one {!Cgra_core.Ilp_mapper.step}
    per requested II, objective and proof need, made by
    {!Cgra_core.Ilp_mapper.prepare} on first use and searched by
    {!Cgra_core.Ilp_mapper.search} on every query, the calls one-shot
    {!Cgra_core.Ilp_mapper.map} makes on a step it then drops.  A
    one-shot answer is thus a session of size one:

    - a {b cold} query (first use of a step) runs one-shot's Hall step,
      build, encode and search on the same model, with no warm start,
      and gives one-shot's answer after the same search;
    - a {b repeat} skips both formulation build and clausification
      ([cache_hit]) and, on the native SAT engine, re-searches a
      solver that keeps the learnt clauses and saved phases of its
      earlier searches ([warm_start]).  An external solver keeps no
      solver: its repeat reuses the built model and searches it from
      scratch.

    Steps share nothing: each II's formula has its own variables, so
    nothing learnt at one II could constrain another, and an
    optimising step's model carries an objective a feasibility step's
    lacks.  A certify-without-explain request
    ({!Cgra_core.Ilp_mapper.verdict_solve_needs_proof}) gets a step of
    its own whose solver logs into its own {!Cgra_satoca.Proof.t}: the
    objective descent bounds by assumption, so the log never holds a
    bound and stays a trace of the model alone.  An II the Hall step
    refutes keeps only its deficiency (and, once an explained query
    asked for it, the model its core is checked against); a repeat
    there is a [cache_hit], never a [warm_start].

    {b Concurrency.}  A session serialises its searches behind a mutex
    (a CDCL solver is single-threaded state); the verdict step after a
    search — an explanation's core extraction included — runs outside
    it, so concurrent requests on one session wait only for each
    other's searches.  Distinct sessions solve in parallel freely. *)

type t

type outcome = {
  result : Cgra_core.Ilp_mapper.result;
  cache_hit : bool;
      (** this step was already resident: its model built (and, on the
          native SAT engine, clausified), or its Hall deficiency kept *)
  warm_start : bool;
      (** this step's SAT solver had completed at least one prior
          solve ([false] wherever no solver is kept: an II the Hall
          step refuted, an external solver) *)
  solves : int;  (** total solves served by this session, including this one *)
  solve_stats : Cgra_satoca.Solver.stats;
      (** {e this} solve's share of the II's solver counters — a
          {!Cgra_satoca.Solver.stats_delta} against the pre-solve
          snapshot, not the cumulative totals.  Two sequential solves
          therefore report disjoint work.  All zero when no kept
          SAT solver searched (a Hall answer, an external solver). *)
}

val create : ?solver:Cgra_core.Solver_spec.t -> Cgra_dfg.Dfg.t -> t
(** A fresh session with no step prepared, building [solver]'s
    formulation (default {!Cgra_core.Solver_spec.default}) for any
    engine.  The DFG is frozen into the session; callers guarantee it
    matches the cache key's digest. *)

val solve :
  ?deadline:Cgra_util.Deadline.t ->
  ?objective:Cgra_core.Formulation.objective ->
  ?certify:bool ->
  ?explain:bool ->
  t ->
  mrrg:Cgra_mrrg.Mrrg.t ->
  ii:int ->
  outcome
(** Answer at [ii] on the MRRG (which must be the session
    architecture elaborated at [ii] — the server's tier-1 cache
    guarantees the pairing) under [objective] (default
    [Feasibility]; a [Weighted] one is matched to its step by physical
    identity).  Prepares the step on first use, then searches it and
    concludes the answer as {!Cgra_core.Ilp_mapper.map} does: a
    [Mapped] result has passed {!Cgra_core.Check}, [explain] (default
    [false]) explains an [Infeasible] one, and [certify] (default
    [false]) certifies it, through the core under [explain] and by the
    step's checked DRAT log otherwise.  [Timeout] leaves the session
    intact and reusable.
    @raise Failure as {!Cgra_core.Ilp_mapper.map} does (a bug, not an
    input error).
    @raise Cgra_backend.Backend.Error as {!Cgra_core.Ilp_mapper.map}
    does for an external solver. *)

val compiled_iis : t -> int list
(** IIs with a resident step, in increasing order (tests). *)

val solver_vars : t -> int
(** Variables over the session's kept SAT solvers (tests). *)
