(** Request execution behind the daemon: name resolution, the two-tier
    cache, and the resident sessions every request is answered by.

    {b Tier 1} caches elaborated MRRGs by [(architecture digest, II)] —
    the architecture's canonical ADL text is digested, so the same
    fabric requested by library name, file path or inline ADL shares
    one entry.  {b Tier 2} caches live {!Session}s by
    [(DFG digest, architecture digest, solver name)]; each session
    holds its per-II steps internally (a refinement of keying
    encodings by [(arch digest, II)] alone — an encoding depends on the
    DFG, the formulation and the engine too, so all belong in the
    key).

    Every map request is one {!Session.solve}: plain, optimising,
    explained or certified, on any solver.  A session keeps one
    {!Cgra_core.Ilp_mapper} step (prepare, search, verdict) per II,
    objective and proof need, so a request's repeat skips the build
    and, on the native SAT engine, resumes a solver that keeps its
    learnt clauses; a cold request does what one-shot
    {!Cgra_core.Ilp_mapper.map} does.  Served verdicts of every
    flavour go through the same replay validation as one-shot CLI
    answers. *)

type t

val create : ?mrrg_capacity:int -> ?session_capacity:int -> ?max_limit:float -> unit -> t
(** Capacities default to 32 (tier 1) and 16 (tier 2); [0] disables a
    tier.  [max_limit] (default 120 s) caps every request's deadline —
    a client's [limit] is clamped to it, and [limit = 0] means "server
    maximum", so no request can hold a worker forever. *)

val handle_map : t -> Protocol.map_request -> (Protocol.verdict, string * string) result
(** Execute one mapping request.  [Error (code, message)] uses the
    protocol error codes ([bad_request] for unresolvable benchmark,
    architecture or solver names and invalid parameters, [backend] for external-solver failures,
    [internal] for unexpected exceptions — the daemon must survive any
    single request). *)

val stats : t -> pool_workers:int -> Protocol.stats

val mrrg_cache_stats : t -> Cache.stats
val session_cache_stats : t -> Cache.stats

val arch_digest : Cgra_arch.Arch.t -> string
(** Hex digest of the architecture's canonical ADL rendering. *)

val dfg_digest : Cgra_dfg.Dfg.t -> string
(** Hex digest of the DFG's canonical textual rendering. *)
