(** A resident solving session for one (DFG, architecture) pair.

    The daemon's tier-2 cache value.  For each requested II it holds
    the formulation's built model and {!Cgra_ilp.Encode.encode} of it
    in that II's own CDCL solver — exactly the encoding one-shot
    {!Cgra_core.Ilp_mapper.map} builds — and searches it with
    {!Cgra_ilp.Solve.search}, the step one-shot runs.  So:

    - a {b cold} query (first use of an II) runs one-shot's encode and
      search on the same model, and its search counters match a fresh
      encode-and-solve exactly;
    - a {b repeat} of an already-compiled II skips both formulation
      build and clausification ([cache_hit]) and re-solves a solver
      that keeps the learnt clauses and saved phases of its earlier
      solves ([warm_start]).

    IIs share nothing: each II's formula has its own variables, so
    nothing learnt at one II could constrain another.

    On first use of an II the session runs one-shot's Hall step
    ({!Cgra_core.Hall.search}) before it builds anything.  An II the
    step refutes keeps only the deficiency, and every query at it is
    answered by {!Cgra_core.Ilp_mapper.hall_verdict}: no model is
    encoded and no solver runs.  An explained query there builds the
    model its core is checked against, once, and keeps it.  A repeat
    at such an II is a [cache_hit], never a [warm_start].

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
  cache_hit : bool;
      (** this II was already resident: its encoding compiled in, or
          its Hall deficiency kept *)
  warm_start : bool;
      (** this II's solver had completed at least one prior solve
          ([false] at an II the Hall step refuted: it has no solver) *)
  solves : int;  (** total solves served by this session, including this one *)
  solve_stats : Cgra_satoca.Solver.stats;
      (** {e this} solve's share of the II's solver counters — a
          {!Cgra_satoca.Solver.stats_delta} against the pre-solve
          snapshot, not the cumulative totals.  Two sequential solves
          therefore report disjoint work.  All zero for a Hall
          answer. *)
}

val accepts : Cgra_core.Solver_spec.t -> bool
(** Whether a session can hold this solver: a formulation on the native
    SAT engine. *)

val create : ?solver:Cgra_core.Solver_spec.t -> Cgra_dfg.Dfg.t -> t
(** A fresh session with no II compiled, building [solver]'s
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
    guarantees the pairing).  Builds and encodes the model on first use
    of this [ii], then searches the II's solver.  The answer
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
