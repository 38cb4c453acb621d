(** A resident solving session for one (DFG, architecture) pair.

    The daemon's tier-2 cache value: one CDCL solver instance that
    {e survives across requests}, into which the feasibility
    formulation for each requested II is clausified once as an
    independently-guarded block ({!Cgra_ilp.Encode.encode_into}).
    Solving II [k] means assuming block [k]'s activation literal — the
    MiniSat-style incremental interface — so:

    - a {b repeat} of an already-compiled (DFG, arch, II) skips both
      formulation build and clausification ([cache_hit]), and resumes
      with the saved phases, branching activity and learnt clauses of
      the previous solve;
    - an {b incremental II search} (II = 1, 2, 3, ... until feasible —
      the SAT-MapIt iteration pattern) reuses one solver across IIs:
      each block's learnt clauses are implied by the union of guarded
      clause sets, hence sound for every later solve ([warm_start]).

    A session holds one {!Cgra_core.Solver_spec}'s formulation on the
    native SAT engine and answers {e feasibility} queries, explained
    and certified through the core or not: an answer goes through
    {!Cgra_core.Ilp_mapper.verdict}, the step one-shot
    {!Cgra_core.Ilp_mapper.map} runs.  Optimisation, certification
    without explanation (the verdict solve itself must log a proof),
    branch-and-bound and external solvers take the stateless one-shot
    path (their solver lifecycles are query-specific).

    {b Concurrency.}  A session serialises its solves behind a mutex
    (a CDCL solver is single-threaded state); the verdict step after a
    solve — an explanation's core extraction included — runs outside
    it, so concurrent requests on one session wait only for each
    other's solves.  Distinct sessions solve in parallel freely. *)

type t

type outcome = {
  result : Cgra_core.Ilp_mapper.result;
  cache_hit : bool;  (** this (II)'s encoding was already compiled in *)
  warm_start : bool;  (** the solver had completed at least one prior solve *)
  solves : int;  (** total solves served by this session, including this one *)
  solve_stats : Cgra_satoca.Solver.stats;
      (** {e this} solve's share of the resident solver's counters — a
          {!Cgra_satoca.Solver.stats_delta} against the pre-solve
          snapshot, not the session-cumulative totals.  Two sequential
          solves therefore report disjoint work. *)
}

val accepts : Cgra_core.Solver_spec.t -> bool
(** Whether a session can hold this solver: a formulation on the native
    SAT engine. *)

val create : ?solver:Cgra_core.Solver_spec.t -> Cgra_dfg.Dfg.t -> t
(** A fresh session with an empty resident solver, building [solver]'s
    formulation (default {!Cgra_core.Solver_spec.default}).  The DFG
    is frozen into the session; callers guarantee it matches the cache
    key's digest.
    @raise Invalid_argument unless {!accepts} holds of [solver]. *)

val solve :
  ?deadline:Cgra_util.Deadline.t ->
  ?certify:bool ->
  ?explain:bool ->
  t ->
  mrrg:Cgra_mrrg.Mrrg.t ->
  ii:int ->
  outcome
(** Decide feasibility at [ii] on the MRRG (which must be the session
    architecture elaborated at [ii] — the server's tier-1 cache
    guarantees the pairing).  Compiles the block on first use of this
    [ii], then solves under its activation assumption.  The answer
    becomes a result through {!Cgra_core.Ilp_mapper.verdict}: a
    [Mapped] result has passed {!Cgra_core.Check} exactly like a
    one-shot answer, and [explain] (default [false]) and [certify]
    (default [false]) explain an [Infeasible] one and certify it
    through its core, as {!Cgra_core.Ilp_mapper.map} does under both
    flags.  [Timeout] leaves the session intact and reusable.
    @raise Invalid_argument on [certify] without [explain]
    ({!Cgra_core.Ilp_mapper.verdict_solve_needs_proof}): the resident
    solve logs no proof.
    @raise Failure as {!Cgra_core.Ilp_mapper.verdict} does (a bug, not
    an input error). *)

val compiled_iis : t -> int list
(** IIs whose encodings are resident, in compilation order (tests). *)
