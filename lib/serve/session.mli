(** A resident solving session for one (DFG, architecture) pair.

    The daemon's tier-2 cache value: one {!Cgra_core.Ilp_mapper.step}
    per requested II, made by {!Cgra_core.Ilp_mapper.prepare} on first
    use and searched by {!Cgra_core.Ilp_mapper.search} on every query,
    the calls one-shot {!Cgra_core.Ilp_mapper.map} makes on a step it
    then drops.  A one-shot answer is thus a session of size one:

    - a {b cold} query (first use of an II) runs one-shot's Hall step,
      build, encode and search on the same model, with no warm start,
      and gives one-shot's answer after the same search;
    - a {b repeat} of an already-compiled II skips both formulation
      build and clausification ([cache_hit]) and re-searches a solver
      that keeps the learnt clauses and saved phases of its earlier
      searches ([warm_start]).

    IIs share nothing: each II's formula has its own variables, so
    nothing learnt at one II could constrain another.  An II the Hall
    step refutes keeps only its deficiency (and, once an explained
    query asked for it, the model its core is checked against); a
    repeat there is a [cache_hit], never a [warm_start].

    A session holds one {!Cgra_core.Solver_spec}'s formulation on the
    native SAT engine and answers {e feasibility} queries, explained
    and certified through the core or not.  Optimisation,
    certification without explanation (a kept solver cannot log a
    proof), branch-and-bound and external solvers are answered by
    one-shot [map].

    {b Concurrency.}  A session serialises its searches behind a mutex
    (a CDCL solver is single-threaded state); the verdict step after a
    search — an explanation's core extraction included — runs outside
    it, so concurrent requests on one session wait only for each
    other's searches.  Distinct sessions solve in parallel freely. *)

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
    guarantees the pairing).  Prepares the II's step on first use, then
    searches it and concludes the answer as
    {!Cgra_core.Ilp_mapper.map} does: a [Mapped] result has passed
    {!Cgra_core.Check}, and [explain] (default [false]) and [certify]
    (default [false]) explain an [Infeasible] one and certify it
    through its core.  [Timeout] leaves the session intact and
    reusable.
    @raise Invalid_argument on [certify] without [explain]
    ({!Cgra_core.Ilp_mapper.verdict_solve_needs_proof}): the resident
    solve logs no proof.
    @raise Failure as {!Cgra_core.Ilp_mapper.map} does (a bug, not an
    input error). *)

val compiled_iis : t -> int list
(** IIs whose encodings are resident, in compilation order (tests). *)
